"""Soak test: a long mixed session with churn everywhere at once.

60 queries interleaving range scans, group-bys and joins under a tight
memory budget, with a mid-session file edit, a policy switch and an
explicit cache clear — every answer checked against a freshly computed
ground truth.  If any piece of state (certificates, positional map, split
files, eviction bookkeeping) survives where it should not,
this is where it surfaces.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import EngineConfig, NoDBEngine
from repro.flatfile.writer import write_csv


def make_data(tmp_path, nrows, seed):
    rng = np.random.default_rng(seed)
    cols = [
        rng.integers(0, nrows, nrows).astype(np.int64),
        rng.integers(0, nrows, nrows).astype(np.int64),
        rng.integers(0, 8, nrows).astype(np.int64),
    ]
    return write_csv(tmp_path / f"soak{seed}.csv", cols), cols


def test_sixty_query_soak(tmp_path):
    path, cols = make_data(tmp_path, 1500, seed=1)
    dim_path = write_csv(
        tmp_path / "dim.csv",
        [np.arange(8, dtype=np.int64), (np.arange(8, dtype=np.int64) + 1) * 100],
    )
    engine = NoDBEngine(
        EngineConfig(policy="partial_v2", memory_budget_bytes=40_000)
    )
    engine.attach("t", path)
    engine.attach("d", dim_path)
    rng = np.random.default_rng(99)
    dim_map = {k: (k + 1) * 100 for k in range(8)}

    def check_range(lo, hi):
        got = engine.query(
            f"select count(*), sum(a1) from t where a1 > {lo} and a1 < {hi}"
        ).rows()[0]
        mask = (cols[0] > lo) & (cols[0] < hi)
        assert got[0] == mask.sum()
        if mask.any():
            assert got[1] == cols[0][mask].sum()

    def check_group():
        got = engine.query(
            "select a3, count(*) as n from t group by a3 order by a3"
        )
        keys, counts = np.unique(cols[2], return_counts=True)
        assert got.column("a3").tolist() == keys.tolist()
        assert got.column("n").tolist() == counts.tolist()

    def check_join():
        got = engine.query(
            "select sum(d.a2) from t join d on t.a3 = d.a1"
        ).scalar()
        assert got == sum(dim_map[k] for k in cols[2])

    for step in range(60):
        kind = step % 3
        if kind == 0:
            lo = int(rng.integers(0, 1400))
            check_range(lo, lo + int(rng.integers(1, 300)))
        elif kind == 1:
            check_group()
        else:
            check_join()

        if step == 20:
            # Mid-session file replacement (atomic): new contents.
            time.sleep(0.01)
            _, new_cols = make_data(tmp_path, 1500, seed=2)
            staging = tmp_path / "soak2.csv"
            os.replace(staging, path)
            cols = new_cols
        if step == 35:
            engine.set_policy("column_loads")
        if step == 50:
            engine.clear_cache()

    assert len(engine.stats.queries) == 60
    engine.close()


def test_clear_cache_frees_and_reloads(tmp_path):
    path, cols = make_data(tmp_path, 500, seed=3)
    engine = NoDBEngine(EngineConfig(policy="column_loads"))
    engine.attach("t", path)
    first = engine.query("select sum(a1) from t").scalar()
    assert engine.memory.resident_bytes > 0
    engine.clear_cache()
    assert engine.memory.resident_bytes == 0
    assert engine.catalog.get("t").table is None
    again = engine.query("select sum(a1) from t")
    assert engine.stats.last().went_to_file
    assert again.scalar() == first
    engine.close()


def test_clear_cache_single_table(tmp_path):
    p1, _ = make_data(tmp_path, 200, seed=4)
    p2, _ = make_data(tmp_path, 200, seed=5)
    engine = NoDBEngine(EngineConfig(policy="column_loads"))
    engine.attach("one", p1)
    engine.attach("two", p2)
    engine.query("select sum(a1) from one")
    engine.query("select sum(a1) from two")
    engine.clear_cache("one")
    assert engine.catalog.get("one").table is None
    assert engine.catalog.get("two").table is not None
    engine.close()
