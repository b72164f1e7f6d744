"""Figure 4 — Adaptive loading with file reorganization.

Paper setting: 10^9-row, 12-attribute table; Q2 queries; every two queries
touch a fresh attribute pair (the second of each pair is an exact rerun);
the very first query asks for the *last* two file attributes — the worst
case for splitting, best case for demonstrating it.  Series: MonetDB
(trimmed at 11,000 s in the paper), Column Loads, Partial Loads V2, Split
Files.

Paper's headline shapes, asserted below:

* Split Files' first query is several times cheaper than MonetDB's
  ("roughly 4 times smaller"), even though it splits the whole file;
* on later *new-column* queries Split Files produces the smallest peaks —
  "2 times faster than Partial Loads and 5 times faster than Column
  Loads" — because it reads only the per-column files it needs;
* every rerun is served at MonetDB steady-state speed by all caching
  policies.

MonetDB here runs with the persistent store on (a real load writes the
internal format), matching what its 11,000 s figure includes.
"""

from __future__ import annotations

import numpy as np

# numpy imports numpy.ma lazily on the first np.unique (~10 ms): pay it at
# collection, not inside Partial Loads V2's first query, the first caller.
import numpy.ma  # noqa: F401
import pytest

from benchmarks.conftest import FIG4_ROWS, fresh_engine
from benchmarks.harness import print_series_table, run_sequence
from benchmarks.workload import figure4_sequence

NEW_COLUMN_QUERIES = [2, 4, 6, 8, 10]  # 0-based indices of later cold peaks
RERUNS = [1, 3, 5, 7, 9, 11]


class _WriteThrough:
    """Times each query through the store write it scheduled: a classic
    load returns only once its internal format is on disk.  A no-op for
    engines without a store."""

    def __init__(self, engine):
        self.engine = engine
        self.stats = engine.stats

    def query(self, sql):
        result = self.engine.query(sql)
        self.engine.flush_persistent_store()
        return result


@pytest.mark.benchmark(group="fig4")
def test_fig4_adaptive_loading_with_file_reorganization(
    benchmark, fig4_file, tmp_path
):
    sqls = [q.sql for q in figure4_sequence(FIG4_ROWS, ncols=12, seed=131)]
    series = []
    for label, policy, config in [
        ("MonetDB", "fullload", {"store_dir": tmp_path / "monet-store"}),
        ("Column Loads", "column_loads", {}),
        ("Partial Loads V2", "partial_v2", {}),
        ("Split Files", "splitfiles", {}),
    ]:
        engine = fresh_engine(policy, fig4_file, **config)
        series.append(run_sequence(label, _WriteThrough(engine), sqls))
        engine.close()
    monet, column, v2, split = series

    print_series_table(
        f"Figure 4: adaptive loading with file reorganization ({FIG4_ROWS} "
        "rows x 12 cols; q1 needs the last two file columns; odd queries are "
        "reruns)",
        series,
    )
    peaks = lambda s: float(np.mean([s.times_s[i] for i in NEW_COLUMN_QUERIES]))
    print(
        f"first query: MonetDB/Split = {monet.times_s[0] / split.times_s[0]:.1f}x "
        "(paper ~4x)\n"
        f"later peaks: ColumnLoads/Split = {peaks(column) / peaks(split):.1f}x "
        "(paper ~5x), "
        f"PartialV2/Split = {peaks(v2) / peaks(split):.1f}x (paper ~2x)"
    )

    # --- Shape assertions -------------------------------------------------
    # First query.  NOTE: the paper's ~4x MonetDB/Split gap compresses to
    # ~1x in pure Python, where per-field tokenization (paid by both
    # contenders) dominates typed parsing (paid for all 12 columns only by
    # the full load) — see EXPERIMENTS.md.  The *mechanism* is asserted
    # exactly via the deterministic parse counters: split converts only 2
    # of the 12 columns on query 1, and its cost stays in MonetDB's
    # ballpark rather than above it.
    assert split.values_parsed[0] < 0.25 * monet.values_parsed[0]
    assert split.times_s[0] < 1.5 * monet.times_s[0]
    # Partial V2 materializes only qualifying rows: strictly less parse
    # work than a whole-column load.  Wall clock is only sanity-bounded:
    # in pure Python the per-row pushdown callable costs about what the
    # skipped parses save at this scale (see EXPERIMENTS.md), whereas the
    # paper's C implementation banks the savings.
    assert v2.values_parsed[0] < column.values_parsed[0]
    assert v2.times_s[0] <= 2.0 * column.times_s[0]
    # Later new-column peaks: split reads tiny per-column files and wins.
    assert peaks(split) < 0.6 * peaks(v2)
    assert peaks(split) < 0.5 * peaks(column)
    # Reruns are store-served under every caching policy.
    for s in (monet, column, v2, split):
        assert all(s.from_store[i] for i in RERUNS), s.label
    # Rerun speed matches MonetDB steady state (same order of magnitude).
    monet_steady = float(np.mean([monet.times_s[i] for i in RERUNS]))
    split_steady = float(np.mean([split.times_s[i] for i in RERUNS]))
    assert split_steady < 5 * monet_steady

    def rerun():
        with fresh_engine("splitfiles", fig4_file) as engine:
            run_sequence("bench", engine, sqls[:2])

    benchmark.pedantic(rerun, rounds=1, iterations=1)
