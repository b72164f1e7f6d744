"""Figure 1b — Query processing costs vs input size.

Paper series on the Q1 template (four aggregates, 10% selective):

* **Awk** — streams and re-parses the whole flat file per query; flat and
  slowest at scale;
* **Cold DB** — data loaded, engine restarted: a fresh engine restores
  the columns restart-warm from the persistent store (memory-mapped)
  before scanning;
* **Hot DB** — columns resident in memory, pure vectorized scans;
* **Index DB** — database cracking: each query physically reorganizes the
  touched columns, so repeated range workloads converge to touching only
  edge pieces ("one order of magnitude faster", per the paper).

Expected shape (asserted): Awk >> Cold > Hot > Index(steady), with the
gap growing with input size.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import FIG1_SIZES, fresh_engine
from repro import AwkEngine
from repro.cracking import CrackingExecutor
from repro.ranges import Condition, ValueInterval
from repro.workload import TableSpec, generate_columns, make_q1


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _db_times(path, tmp_path, n) -> tuple[float, float]:
    """(cold, hot) seconds for one Q1 on a loaded table."""
    store_dir = tmp_path / f"store{n}"
    loader = fresh_engine("fullload", path, store_dir=store_dir)
    loader.query("select count(*) from r")  # pay the load once
    # Let the background store write land first: left running, it
    # competes with the hot queries.
    loader.flush_persistent_store()
    q = make_q1(n, rng=np.random.default_rng(n)).sql
    hot = min(
        _timed(lambda: loader.query(q)) for _ in range(3)
    )  # min-of-3: hot runs are jitter-sensitive at small sizes
    loader.close()

    def cold_run() -> float:
        engine = fresh_engine("fullload", path, store_dir=store_dir)
        try:
            seconds = _timed(lambda: engine.query(q))
            assert engine.stats.counters.restart_warm_hits == 1
            return seconds
        finally:
            engine.close()

    # Each cold run is a fresh engine restoring restart-warm from the store.
    cold = min(cold_run() for _ in range(3))
    return cold, hot


def _awk_time(path, n) -> float:
    awk = AwkEngine()
    awk.attach("r", path)
    q = make_q1(n, rng=np.random.default_rng(n)).sql
    start = time.perf_counter()
    awk.query(q)
    return time.perf_counter() - start


def _index_time(n) -> float:
    """Steady-state cracking cost: mean of queries 4..8 on a cracked table."""
    cols = generate_columns(TableSpec(nrows=n, ncols=4, seed=17))
    ex = CrackingExecutor({f"a{i+1}": c for i, c in enumerate(cols)})
    rng = np.random.default_rng(n)
    times = []
    for i in range(8):
        q = make_q1(n, rng=rng)
        (v1, v2), (v3, v4) = q.bounds
        cond = Condition(
            [("a1", ValueInterval(v1, v2)), ("a2", ValueInterval(v3, v4))]
        )
        start = time.perf_counter()
        ex.aggregate(
            cond, [("sum", "a1"), ("min", "a4"), ("max", "a3"), ("avg", "a2")]
        )
        times.append(time.perf_counter() - start)
    return float(np.mean(times[3:]))


@pytest.mark.benchmark(group="fig1b-query")
def test_fig1b_query_costs(benchmark, fig1_files, tmp_path):
    rows = []
    for n in FIG1_SIZES:
        awk = _awk_time(fig1_files[n], n)
        cold, hot = _db_times(fig1_files[n], tmp_path, n)
        index = _index_time(n)
        rows.append((n, awk, cold, hot, index))

    print("\nFigure 1b: query processing cost (seconds, one Q1)")
    print(f"{'rows':>10}  {'Awk':>9}  {'Cold DB':>9}  {'Hot DB':>9}  {'Index DB':>9}")
    for n, awk, cold, hot, index in rows:
        print(f"{n:>10}  {awk:>9.4f}  {cold:>9.4f}  {hot:>9.4f}  {index:>9.4f}")
    largest = rows[-1]
    print(
        f"at {largest[0]} rows: Awk/Hot = {largest[1] / largest[3]:.1f}x, "
        f"Awk/Index = {largest[1] / largest[4]:.1f}x, "
        f"Cold/Hot = {largest[2] / largest[3]:.1f}x"
    )

    for n, awk, cold, hot, index in rows:
        assert awk > cold > hot, f"expected Awk > Cold > Hot at {n} rows"
        assert index < awk, "cracking must beat re-parsing"
    # The paper: gaps grow with data size ("one order of magnitude" at
    # scale); at the largest size the hot DBMS must win by >10x.
    assert rows[-1][1] > 5 * rows[-1][2], "Awk must lose clearly to cold DB at scale"
    assert rows[-1][1] / rows[-1][3] > 10

    benchmark.pedantic(
        lambda: _db_times(fig1_files[FIG1_SIZES[-1]], tmp_path, FIG1_SIZES[-1]),
        rounds=1,
        iterations=1,
    )
