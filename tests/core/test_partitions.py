"""Unit tests for the row-range partition planner and its cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.engine import NoDBEngine
from repro.core.partitions import (
    Partition,
    PartitionIndex,
    partitions_for,
    plan_partitions,
)
from repro.errors import FlatFileError
from repro.storage.catalog import Catalog


def attach(tmp_path, content: str, **config_kwargs):
    path = tmp_path / "t.csv"
    path.write_text(content)
    entry = Catalog().attach("t", path)
    return entry, EngineConfig(**config_kwargs), path


def make_csv(nrows: int, row: str = "12345,67890") -> str:
    return "\n".join([row] * nrows) + "\n"


class TestPlanPartitions:
    def test_partitions_tile_the_file_exactly(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(make_csv(1000))
        size = path.stat().st_size
        pindex = plan_partitions(path, size, 4)
        assert pindex.partitions[0].byte_start == 0
        assert pindex.partitions[-1].byte_end == size
        for prev, cur in zip(pindex.partitions, pindex.partitions[1:]):
            assert prev.byte_end == cur.byte_start
        assert sum(p.nbytes for p in pindex.partitions) == size

    def test_boundaries_are_newline_aligned(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(make_csv(997, "1,22,333"))
        data = path.read_bytes()
        pindex = plan_partitions(path, len(data), 5)
        assert len(pindex) >= 2
        for p in pindex.partitions[1:]:
            assert data[p.byte_start - 1 : p.byte_start] == b"\n"

    def test_rows_never_straddle_partitions(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(make_csv(503, "abc,def,ghi"))
        data = path.read_bytes()
        pindex = plan_partitions(path, len(data), 4)
        total_rows = 0
        for p in pindex.partitions:
            chunk = data[p.byte_start : p.byte_end].decode("utf-8")
            rows = [r for r in chunk.split("\n") if r]
            assert all(r == "abc,def,ghi" for r in rows)
            total_rows += len(rows)
        assert total_rows == 503

    def test_non_ascii_partitions_decode_independently(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(make_csv(400, "日本語データ,éàü,x"))
        size = path.stat().st_size
        pindex = plan_partitions(path, size, 4)
        assert len(pindex) >= 2
        data = path.read_bytes()
        reassembled = "".join(
            data[p.byte_start : p.byte_end].decode("utf-8")
            for p in pindex.partitions
        )
        assert reassembled == path.read_text()

    def test_one_giant_line_collapses_to_one_partition(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a," + "x" * 50_000 + "\n")
        size = path.stat().st_size
        pindex = plan_partitions(path, size, 4)
        assert len(pindex) == 1
        # probes are bounded: at most one stride per candidate boundary
        assert pindex.probe_bytes <= size

    def test_probe_bytes_are_measured_not_estimated(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(make_csv(1000))
        size = path.stat().st_size
        pindex = plan_partitions(path, size, 4)
        assert 0 < pindex.probe_bytes <= size
        assert pindex.probe_calls >= len(pindex) - 1

    def test_skip_rows_only_on_first_partition(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(make_csv(900))
        size = path.stat().st_size
        pindex = plan_partitions(path, size, 3, skip_rows=1)
        assert pindex.partitions[0].skip_rows == 1
        assert all(p.skip_rows == 0 for p in pindex.partitions[1:])

    def test_nparts_must_be_positive(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(make_csv(10))
        with pytest.raises(FlatFileError):
            plan_partitions(path, path.stat().st_size, 0)


class TestPartitionsFor:
    def test_serial_config_gets_no_partitions(self, tmp_path):
        entry, config, _ = attach(tmp_path, make_csv(1000), parallel_workers=1)
        assert partitions_for(entry, config) is None

    def test_small_file_stays_serial(self, tmp_path):
        entry, config, _ = attach(
            tmp_path,
            make_csv(100),
            parallel_workers=4,
            partition_min_bytes=1 << 20,
        )
        assert partitions_for(entry, config) is None

    def test_partition_count_capped_by_min_bytes(self, tmp_path):
        content = make_csv(1000)  # ~12 KB
        entry, config, _ = attach(
            tmp_path,
            content,
            parallel_workers=8,
            partition_min_bytes=len(content) // 3,
        )
        pindex = partitions_for(entry, config)
        assert pindex is not None
        assert len(pindex) == 3

    def test_plan_is_cached_and_invalidated(self, tmp_path):
        entry, config, path = attach(
            tmp_path, make_csv(1000), parallel_workers=2, partition_min_bytes=64
        )
        first = partitions_for(entry, config)
        assert first is not None
        assert partitions_for(entry, config) is first  # cached
        NoDBEngine().lifecycle.invalidate(entry)
        assert entry.partitions is None
        again = partitions_for(entry, config)
        assert again is not None and again is not first

    def test_worker_change_recomputes(self, tmp_path):
        entry, config, _ = attach(
            tmp_path, make_csv(2000), parallel_workers=2, partition_min_bytes=64
        )
        two = partitions_for(entry, config)
        config.parallel_workers = 4
        four = partitions_for(entry, config)
        assert two is not None and four is not None
        assert len(four) == 4 and len(two) == 2

    def test_probe_reads_are_accounted(self, tmp_path):
        entry, config, _ = attach(
            tmp_path, make_csv(2000), parallel_workers=4, partition_min_bytes=64
        )
        before = entry.file.stats.bytes_read
        partitions_for(entry, config)
        assert entry.file.stats.bytes_read > before

    def test_degenerate_plan_cached_without_reprobe(self, tmp_path):
        entry, config, _ = attach(
            tmp_path,
            "a," + "x" * 50_000 + "\n",
            parallel_workers=4,
            partition_min_bytes=64,
        )
        assert partitions_for(entry, config) is None  # one giant row
        after_first = entry.file.stats.bytes_read
        assert partitions_for(entry, config) is None
        assert entry.file.stats.bytes_read == after_first  # no re-probe


def test_partition_index_len():
    pindex = PartitionIndex(
        partitions=[Partition(0, 0, 10), Partition(1, 10, 20)],
        requested=2,
        file_size=20,
    )
    assert len(pindex) == 2
    assert pindex.partitions[0].nbytes == 10


def test_workers_zero_resolves_to_cpu_count():
    config = EngineConfig(parallel_workers=0)
    assert config.resolved_parallel_workers() >= 1


def test_negative_workers_rejected():
    with pytest.raises(ValueError):
        EngineConfig(parallel_workers=-1)
    with pytest.raises(ValueError):
        EngineConfig(partition_min_bytes=0)


def test_row_offsets_merge_shape(tmp_path):
    """Partition row counts must sum to the serial row count."""
    content = make_csv(777)
    path = tmp_path / "t.csv"
    path.write_text(content)
    size = path.stat().st_size
    pindex = plan_partitions(path, size, 4)
    data = path.read_bytes()
    counts = [
        len([r for r in data[p.byte_start : p.byte_end].split(b"\n") if r])
        for p in pindex.partitions
    ]
    assert sum(counts) == 777
    assert np.all(np.asarray(counts) > 0)
