"""EngineStatistics parity: the shipped tokenizer and the scalar oracle.

Regression guard for the work-counter contract: the vectorized kernel
must report exactly the work the scalar ``str.find`` walk
(``tests/scalar_oracle.py``) would have done — "fields touched" counts
only the fields the pass visits (early abort, pushdown abandonment),
never every delimiter the one-shot byte scan located; byte and parse
counters must match too.  If the kernel ever drifts, the paper's figures
would silently measure a different engine.
"""

from __future__ import annotations

import shutil
import time

import pytest

from benchmarks.workload import TableSpec, materialize_csv
from repro import CSVEngine, EngineConfig, NoDBEngine
from scalar_oracle import scalar_tokenize_framed

QUERIES = [
    "select sum(a1) from r",  # early abort: one column
    "select a4 from r where a2 > 120",  # pushdown + scanned-over columns
    "select count(*) from r",
    "select sum(a1) from r",  # warm repeat (selective/store path)
]

# Each query needs a column the previous ones did not; with selective
# reads off, every pass after the first frames the file again from the
# anchors of the map the first pass learned.
WARM_MAP_QUERIES = [
    "select sum(a1) from r",
    "select sum(a3) from r",
    "select a4 from r where a2 > 120",
]


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("veccounters")
    return materialize_csv(TableSpec(nrows=400, ncols=4, seed=311), root / "r.csv")


def _counters(path, policy: str, queries=QUERIES, **config):
    engine = NoDBEngine(EngineConfig(policy=policy, **config))
    try:
        engine.attach("r", path)
        out = []
        for sql in queries:
            result = engine.query(sql)
            q = engine.stats.last()
            out.append(
                {
                    "sql": sql,
                    "rows": result.rows(),
                    "rows_scanned": q.tokenizer.rows_scanned,
                    "rows_emitted": q.tokenizer.rows_emitted,
                    "rows_abandoned": q.tokenizer.rows_abandoned,
                    "fields_tokenized": q.tokenizer.fields_tokenized,
                    "chars_scanned": q.tokenizer.chars_scanned,
                    "values_parsed": q.parse.values_parsed,
                    "file_bytes_read": q.file_bytes_read,
                }
            )
        return out
    finally:
        engine.close()


@pytest.mark.parametrize(
    "policy", ["column_loads", "partial_v1", "partial_v2", "external", "fullload"]
)
def test_tokenizer_counters_identical_between_routes(csv_file, policy, monkeypatch):
    shipped = _counters(csv_file, policy)
    monkeypatch.setattr("repro.core.loader.tokenize_bytes", scalar_tokenize_framed)
    assert shipped == _counters(csv_file, policy)


def test_fields_touched_counts_only_visited_columns(csv_file):
    """The one-shot delimiter scan must not inflate "fields touched"."""
    engine = NoDBEngine(EngineConfig(policy="column_loads"))
    try:
        engine.attach("r", csv_file)
        engine.query("select sum(a1) from r")
        q = engine.stats.last()
        # 400 rows x 1 needed column — not x 4 located delimiter columns.
        assert q.tokenizer.fields_tokenized == 400
    finally:
        engine.close()


def test_warm_map_passes_run_the_kernel(csv_file, tmp_path, monkeypatch):
    """On clean plain CSV no pass leaves the kernel — cold, warm-map,
    append-tail and split-file remainder passes alike — and the counters
    are the oracle's."""
    # Without selective reads every later query frames the file again,
    # starting from the anchors the whole-frame map offers.
    monkeypatch.setattr("repro.core.loader.tokenize_bytes", scalar_tokenize_framed)
    oracle_counters = _counters(
        csv_file, "column_loads", queries=WARM_MAP_QUERIES, selective_reads=False
    )
    monkeypatch.undo()

    def no_fallback(*args, **kwargs):
        raise AssertionError("the dialect loop ran on clean plain CSV")

    monkeypatch.setattr("repro.flatfile.tokenizer.tokenize_dialect", no_fallback)
    assert _counters(
        csv_file, "column_loads", queries=WARM_MAP_QUERIES, selective_reads=False
    ) == oracle_counters

    path = tmp_path / "r.csv"
    shutil.copy(csv_file, path)
    oracle = CSVEngine()
    oracle.attach("r", path)
    appending = NoDBEngine(EngineConfig(policy="column_loads"))
    splitting = NoDBEngine(EngineConfig(policy="splitfiles"))
    try:
        for engine in (appending, splitting):
            engine.attach("r", path)
        appending.query("select sum(a1), sum(a3) from r")
        time.sleep(0.002)  # distinct mtime even on coarse filesystems
        with open(path, "a") as fh:
            fh.write("1,2,3,4\n5,6,7,8\n")
        sql = "select sum(a1), sum(a3) from r"
        assert appending.query(sql).rows() == oracle.query(sql).rows()
        assert appending.stats.counters.append_extensions == 1
        # a2 splits the original file; a4 then tokenizes the remainder.
        for sql in ("select sum(a2) from r", "select sum(a4) from r"):
            assert splitting.query(sql).rows() == oracle.query(sql).rows()
        assert splitting.catalog.get("r").split_catalog.homes[3].kind == "single"
    finally:
        appending.close()
        splitting.close()
        oracle.close()


def test_corrupted_map_offsets_never_change_an_answer(csv_file):
    """The kernel reads only *which* columns the map knows, never where:
    a learned column shifted by one character must not leak into the
    values of a later pass that re-tokenizes it."""
    sql = "select sum(a2), sum(a3) from r where a2 > 120"
    engine = NoDBEngine(EngineConfig(policy="partial_v1"))
    oracle = CSVEngine()
    try:
        engine.attach("r", csv_file)
        oracle.attach("r", csv_file)
        engine.query("select sum(a2) from r")
        pmap = engine.catalog.get("r").positional_map
        assert all(pmap.knows_column(c) for c in range(4))  # the whole frame
        (s0, e0), (s1, e1) = pmap.slices_for(0), pmap.slices_for(1)
        nrows, geometry = pmap.nrows, pmap.text_geometry
        pmap.clear()  # keep columns 0 and 1, column 1 shifted right
        pmap.record_nrows(nrows)
        pmap.record_text_geometry(*geometry)
        pmap.record_field_offsets(0, s0, e0 + 1, sep=1)
        pmap.record_field_offsets(1, s1 + 1, e1 + 1, sep=1)
        assert pmap.slices_for(1)[0].tolist() == (s1 + 1).tolist()
        assert engine.query(sql).rows() == oracle.query(sql).rows()
    finally:
        engine.close()
        oracle.close()
