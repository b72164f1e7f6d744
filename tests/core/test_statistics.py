"""Tests for the statistics layer (counters behind every figure)."""

import pytest

from dataclasses import fields

import repro
from repro import EngineConfig, NoDBEngine
from repro.core.statistics import (
    HISTORY_CAP,
    ConcurrencyCounters,
    EngineStatistics,
    QueryStats,
    Stopwatch,
)
from repro.flatfile.parser import ParseStats
from repro.flatfile.tokenizer import TokenizerStats


class TestQueryStats:
    def test_summary_format(self):
        q = QueryStats(sql="select 1", policy="fullload")
        q.served_from_store = True
        q.file_bytes_read = 1234
        line = q.summary()
        assert "src=store" in line
        assert "1234" in line

    def test_tokenizer_merge(self):
        q = QueryStats()
        q.tokenizer.merge(TokenizerStats(rows_scanned=10, fields_tokenized=20))
        q.tokenizer.merge(TokenizerStats(rows_scanned=5, fields_tokenized=5))
        assert q.tokenizer.rows_scanned == 15
        assert q.tokenizer.fields_tokenized == 25

    def test_snapshot_lists_every_scalar_field(self):
        snap = QueryStats(split_files_written=3).snapshot()
        scalars = {f.name for f in fields(QueryStats)} - {"tokenizer", "parse"}
        assert scalars <= set(snap)
        assert snap["split_files_written"] == 3
        assert {"values_parsed", "fields_tokenized"} <= set(snap)

    def test_parse_merge(self):
        q = QueryStats()
        q.parse.merge(ParseStats(values_parsed=7))
        q.parse.merge(ParseStats(values_parsed=3))
        assert q.parse.values_parsed == 10


class TestEngineStatistics:
    def _q(self, bytes_read=0, parsed=0, loaded=0, store=False, file=False):
        q = QueryStats()
        q.file_bytes_read = bytes_read
        q.parse = ParseStats(values_parsed=parsed)
        q.rows_loaded = loaded
        q.served_from_store = store
        q.went_to_file = file
        return q

    def test_totals(self):
        stats = EngineStatistics()
        stats.record(self._q(bytes_read=100, parsed=10, loaded=5, file=True))
        stats.record(self._q(bytes_read=50, parsed=20, store=True))
        assert stats.total_file_bytes == 150
        assert stats.total_values_parsed == 30
        assert stats.total_rows_loaded == 5
        assert stats.queries_from_store == 1
        assert stats.queries_from_file == 1

    def test_last(self):
        stats = EngineStatistics()
        with pytest.raises(IndexError):
            stats.last()
        q = self._q()
        stats.record(q)
        assert stats.last() is q


class TestCounterSnapshot:
    def test_every_counter_is_reported(self):
        engine = NoDBEngine(EngineConfig())
        try:
            counters = engine.stats.snapshot()["counters"]
        finally:
            engine.close()
        assert {f.name for f in fields(ConcurrencyCounters)} <= set(counters)

    def test_append_extension_reaches_connection_stats(self, tmp_path):
        path = tmp_path / "grow.csv"
        path.write_text("".join(f"{i},{i * 2}\n" for i in range(200)))
        with repro.connect(path) as conn:
            conn.execute("select sum(a1) from t")
            with path.open("a") as f:
                f.write("200,400\n")
            assert conn.execute("select sum(a1) from t").scalar() == sum(range(201))
            assert conn.stats()["counters"]["append_extensions"] == 1


class TestBoundedHistory:
    def test_3000_queries_keep_the_cap_and_exact_totals(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("".join(f"{i},{i % 7}\n" for i in range(20)))
        engine = NoDBEngine(EngineConfig(policy="external"))
        try:
            engine.attach("r", path)
            parsed = file_bytes = 0
            for i in range(3000):
                engine.query(f"select sum(a1) from r where a2 > {i % 5}")
                parsed += engine.stats.last().parse.values_parsed
                file_bytes += engine.stats.last().file_bytes_read
            assert len(engine.stats.queries) == HISTORY_CAP
            snap = engine.stats.snapshot()
            assert snap["queries"] == snap["queries_from_file"] == 3000
            assert parsed > 0
            assert snap["total_values_parsed"] == parsed
            assert snap["total_file_bytes"] == file_bytes
        finally:
            engine.close()


class TestStopwatch:
    def test_laps_are_disjoint(self):
        import time

        watch = Stopwatch()
        time.sleep(0.01)
        first = watch.lap()
        second = watch.lap()
        assert first >= 0.01
        assert second < first
