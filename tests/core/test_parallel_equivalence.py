"""Parallel/serial equivalence: the partitioned scan must be invisible.

Property-style guarantee of the partitioned parallel loader: for any
input file, any loading policy and any ``parallel_workers`` in {1, 2, 4},
the engine must produce identical query results, identical merged
positional maps, and identical schema-widening outcomes.  The inputs
deliberately cover the paper-shaped happy path *and* the merge hazards:
ragged field widths, non-ASCII text (character offsets != byte offsets),
blank-line runs (partitions with zero data rows), headers, and values
that force widening deep inside a single partition.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import EngineConfig, NoDBEngine
from repro.errors import ReproError

WORKERS = (1, 2, 4)


def run_engine(path, sql, workers, policy="column_loads", **cfg):
    """One query under one worker count; returns everything comparable."""
    cfg.setdefault("partition_min_bytes", 1)
    config = EngineConfig(policy=policy, parallel_workers=workers, **cfg)
    engine = NoDBEngine(config)
    engine.attach("r", path)
    try:
        result = engine.query(sql)
    except ReproError as exc:
        engine.close()
        return {"error": type(exc).__name__}
    entry = engine.catalog.get("r")
    pmap = entry.positional_map
    out = {
        "rows": result.rows(),
        "schema": engine.schema_of("r"),
        "nrows": entry.table.nrows if entry.table is not None else None,
        "rows_scanned": engine.stats.last().tokenizer.rows_scanned,
        "map_nrows": pmap.nrows,
        "known_columns": pmap.known_columns(),
        "field_offsets": {
            c: pmap.slices_for(c)[0].tolist() for c in pmap.known_columns()
        },
        "field_ends": {
            c: pmap.slices_for(c)[1].tolist() for c in pmap.known_columns()
        },
        "geometry": pmap.text_geometry,
        "partitions": engine.stats.last().parallel_partitions,
    }
    engine.close()
    return out


def assert_equivalent(path, sql, policy="column_loads", expect_parallel=True, **cfg):
    outs = {w: run_engine(path, sql, w, policy=policy, **cfg) for w in WORKERS}
    serial = outs[1]
    for w in (2, 4):
        if "error" in serial:
            assert outs[w] == serial, f"workers={w} diverged for {policy}: {sql}"
            continue
        assert outs[w] == {**serial, "partitions": outs[w]["partitions"]}, (
            f"workers={w} diverged for {policy}: {sql}"
        )
        if expect_parallel:
            assert outs[w]["partitions"] >= 2
    if "error" not in serial:
        assert serial["partitions"] == 0
    return serial


def write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# property-style random tables
# ---------------------------------------------------------------------------


def random_table(seed: int) -> list[str]:
    """A deterministic random table mixing the merge hazards."""
    rng = random.Random(seed)
    ncols = rng.randint(2, 5)
    words = ["héllo", "wörld", "日本語", "x", "data🎉", "plain", ""]
    lines = []
    if seed % 2:
        lines.append(",".join(f"col{i}" for i in range(ncols)))
    col_kind = [rng.choice(["int", "float", "str"]) for _ in range(ncols)]
    for i in range(rng.randint(150, 400)):
        fields = []
        for kind in col_kind:
            if kind == "int":
                fields.append(str(rng.randint(-10**rng.randint(1, 9), 10**9)))
            elif kind == "float":
                fields.append(f"{rng.uniform(-1e4, 1e4):.{rng.randint(1, 8)}f}")
            else:
                fields.append(rng.choice(words) + str(i))
        lines.append(",".join(fields))
        if rng.random() < 0.05:
            lines.extend([""] * rng.randint(1, 15))
    return lines


@pytest.mark.parametrize("seed", [3, 4, 7, 12, 19])
def test_random_tables_equivalent(tmp_path, seed):
    path = write(tmp_path, f"r{seed}.csv", random_table(seed))
    serial = assert_equivalent(path, "select count(*) from r")
    assert serial["nrows"] is not None


@pytest.mark.parametrize("policy", ["column_loads", "fullload", "external", "partial_v1", "partial_v2"])
def test_every_file_policy_equivalent(tmp_path, policy):
    rng = random.Random(99)
    lines = [f"{rng.randint(0, 10000)},{rng.uniform(0, 100):.3f},{i}" for i in range(600)]
    path = write(tmp_path, "r.csv", lines)
    assert_equivalent(
        path,
        "select sum(a1), avg(a2), count(*) from r where a1 > 100 and a1 < 9000",
        policy=policy,
    )


# ---------------------------------------------------------------------------
# widening outcomes
# ---------------------------------------------------------------------------


def test_int_to_float_widening_equivalent(tmp_path):
    lines = [f"{i},{i * 2}" for i in range(300)]
    lines[257] = "3.25,514"  # float deep in an int-sampled column
    path = write(tmp_path, "r.csv", lines)
    serial = assert_equivalent(path, "select sum(a1) from r")
    assert serial["schema"][0] == ("a1", "float64")


def test_int_to_str_widening_equivalent(tmp_path):
    # A stray string forces the whole column to str in every variant; the
    # parallel merge must rebuild the exact raw text for partitions that
    # had already parsed their slice numerically.
    lines = [f"{i:04d},{i}" for i in range(400)]  # zero-padded: "0007"
    lines[391] = "oops,391"
    path = write(tmp_path, "r.csv", lines)
    serial = assert_equivalent(path, "select count(*) from r")
    assert serial["schema"][0] == ("a1", "str")


def test_work_counters_equal_serial_without_predicates(tmp_path):
    """One parse loop over the merged fields: the parallel route's
    tokenizer and parse counters equal the serial route's exactly, also
    when a column widens int -> float and another int -> str in the
    second partition only."""
    lines = [f"{i},{i * 2},{i % 7}" for i in range(400)]
    lines[350] = "3.5,oops,0"
    path = write(tmp_path, "r.csv", lines)
    counters = {}
    for w in WORKERS:
        engine = NoDBEngine(
            EngineConfig(parallel_workers=w, partition_min_bytes=1)
        )
        engine.attach("r", path)
        engine.query("select sum(a1), count(a2), sum(a3) from r")
        last = engine.stats.last()
        counters[w] = (last.tokenizer, last.parse, engine.schema_of("r"))
        assert last.parallel_partitions == (0 if w == 1 else w)
        if w == 2:
            first, second = engine.catalog.get("r").partitions.partitions
            assert first.byte_end <= len("\n".join(lines[:350]).encode())
        engine.close()
    assert counters[1][2][:2] == [("a1", "float64"), ("a2", "str")]
    assert counters[2] == counters[1]
    assert counters[4] == counters[1]


def test_str_widening_preserves_exact_text(tmp_path):
    lines = [f"{i:04d},{i}" for i in range(300)]
    lines[250] = "not-a-number,250"
    path = write(tmp_path, "r.csv", lines)
    values = {}
    for w in WORKERS:
        engine = NoDBEngine(
            EngineConfig(parallel_workers=w, partition_min_bytes=1)
        )
        engine.attach("r", path)
        engine.query("select count(*) from r")  # loads (and widens) a1
        pc = engine.catalog.get("r").table.columns["a1"]
        values[w] = pc.values.decode().tolist()
        engine.close()
    # zero-padded text must survive (a numeric round-trip would drop it)
    assert values[1][7] == "0007"
    assert values[1] == values[2] == values[4]


def test_pushdown_widening_equivalent(tmp_path):
    lines = [f"{i},{i * 3}" for i in range(300)]
    lines[222] = "222.75,666"  # widens during predicate evaluation
    path = write(tmp_path, "r.csv", lines)
    serial = assert_equivalent(
        path,
        "select sum(a2) from r where a1 > 10 and a1 < 250",
        policy="partial_v2",
    )
    assert serial["schema"][0] == ("a1", "float64")


# ---------------------------------------------------------------------------
# structural edge cases
# ---------------------------------------------------------------------------


def test_blank_line_runs_make_empty_partitions(tmp_path):
    lines = []
    for i in range(120):
        lines.append(f"{i},{i % 5}")
        if i % 8 == 0:
            lines.extend([""] * 40)  # long blank runs: some partitions empty
    path = write(tmp_path, "r.csv", lines)
    assert_equivalent(path, "select sum(a1), count(*) from r where a2 > 1")


def test_non_ascii_with_header_equivalent(tmp_path):
    rng = random.Random(5)
    words = ["héllo", "wörld", "日本語データ", "émoji🎉"]
    lines = ["name,val"] + [
        f"{rng.choice(words)}{i},{i}" for i in range(500)
    ]
    path = write(tmp_path, "r.csv", lines)
    serial = assert_equivalent(path, "select count(*) from r where val > 100")
    # non-ASCII text: char offsets are not byte offsets -> not sliceable
    assert serial["geometry"][0] > serial["geometry"][1]


def test_ragged_rows_error_identically(tmp_path):
    lines = [f"{i},{i}" for i in range(200)]
    lines[150] = "lonely"
    path = write(tmp_path, "r.csv", lines)
    serial = assert_equivalent(
        path, "select sum(a2) from r", expect_parallel=False
    )
    assert serial == {"error": "FlatFileError"}


def test_crlf_rows_equivalent(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("\r\n".join(f"{i},{i * 2}" for i in range(300)) + "\r\n")
    assert_equivalent(path, "select sum(a1), max(a2) from r")


def test_small_file_degrades_to_serial(tmp_path):
    path = write(tmp_path, "r.csv", [f"{i},{i}" for i in range(50)])
    out = run_engine(
        path, "select sum(a1) from r", 4, partition_min_bytes=1 << 20
    )
    assert out["partitions"] == 0  # below two minimum-size partitions


def test_parallel_cold_then_warm_selective_path(tmp_path):
    """A parallel cold pass must teach the map well enough that the next
    query takes the selective-read fast path, exactly like serial."""
    lines = [f"{i},{i * 2},{i * 3},{i * 4}" for i in range(3000)]
    path = write(tmp_path, "r.csv", lines)
    engine = NoDBEngine(
        EngineConfig(
            policy="partial_v1", parallel_workers=4, partition_min_bytes=1
        )
    )
    engine.attach("r", path)
    # predicate and projection share a column, so the cold pass learns its
    # slices for every row — the precondition for a selective repeat
    first = engine.query("select sum(a1) from r where a1 > 10 and a1 < 2000")
    assert engine.stats.last().parallel_partitions >= 2
    again = engine.query("select sum(a1) from r where a1 > 10 and a1 < 2000")
    assert again.rows() == first.rows()
    # warm repeat goes selective: strictly less than the whole file
    assert engine.stats.last().file_bytes_read < path.stat().st_size
    engine.close()


def test_result_stats_expose_partitions(tmp_path):
    path = write(tmp_path, "r.csv", [f"{i},{i}" for i in range(500)])
    engine = NoDBEngine(EngineConfig(parallel_workers=2, partition_min_bytes=1))
    engine.attach("r", path)
    result = engine.query("select sum(a1) from r")
    assert result.stats["parallel_partitions"] == 2
    engine.close()


def test_parallel_store_contents_match_serial(tmp_path):
    rng = random.Random(11)
    lines = [f"{rng.randint(0, 999)},{rng.uniform(0, 1):.6f}" for _ in range(800)]
    path = write(tmp_path, "r.csv", lines)
    arrays = {}
    for w in (1, 4):
        engine = NoDBEngine(
            EngineConfig(parallel_workers=w, partition_min_bytes=1)
        )
        engine.attach("r", path)
        engine.query("select sum(a1), sum(a2) from r")
        table = engine.catalog.get("r").table
        arrays[w] = {
            name: pc.values.copy() for name, pc in table.columns.items()
        }
        engine.close()
    assert set(arrays[1]) == set(arrays[4])
    for name in arrays[1]:
        np.testing.assert_array_equal(arrays[1][name], arrays[4][name])
