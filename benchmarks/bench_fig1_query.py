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
  edge pieces ("one order of magnitude faster", per the paper).  Here it
  is the engine's own warm cracking route: a full-load engine with
  ``crack_after=1``, loaded once, then sent the Q1 sequence.

Expected shape (asserted): Awk >> Cold > Hot, Index(steady) < Awk, with
the gap growing with input size; Index DB must crack and answer exactly
as the hot engine does.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.awk import AwkEngine
from benchmarks.conftest import FIG1_SIZES, fresh_engine
from benchmarks.workload import make_q1

#: Q1 instances per Index DB run; the steady state is queries 4..8.
INDEX_QUERIES = 8


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _q1_sequence(n) -> list[str]:
    """The Q1 instances of one size; the first is the one Cold/Hot time."""
    rng = np.random.default_rng(n)
    return [make_q1(n, rng=rng).sql for _ in range(INDEX_QUERIES)]


def _db_times(path, tmp_path, n) -> tuple[float, float, list]:
    """(cold, hot) seconds for one Q1 on a loaded table, and the hot
    engine's answers to the whole Q1 sequence."""
    store_dir = tmp_path / f"store{n}"
    loader = fresh_engine("fullload", path, store_dir=store_dir)
    loader.query("select count(*) from r")  # pay the load once
    # Let the background store write land first: left running, it
    # competes with the hot queries.
    loader.flush_persistent_store()
    sequence = _q1_sequence(n)
    q = sequence[0]
    hot = min(
        _timed(lambda: loader.query(q)) for _ in range(3)
    )  # min-of-3: hot runs are jitter-sensitive at small sizes
    answers = [loader.query(sql).rows() for sql in sequence]
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
    return cold, hot, answers


def _awk_time(path, n) -> float:
    awk = AwkEngine()
    awk.attach("r", path)
    q = _q1_sequence(n)[0]
    start = time.perf_counter()
    awk.query(q)
    return time.perf_counter() - start


def _index_time(path, n, hot_answers) -> float:
    """Steady-state cracking cost: mean of queries 4..8 on a cracked table."""
    engine = fresh_engine("fullload", path, crack_after=1)
    try:
        engine.query("select count(*) from r")  # pay the load once
        times = []
        for sql, expected in zip(_q1_sequence(n), hot_answers):
            start = time.perf_counter()
            result = engine.query(sql)
            times.append(time.perf_counter() - start)
            assert result.rows() == expected, f"Index DB answer differs at {n} rows"
        assert engine.stats.counters.cracks > 0, "Index DB never cracked"
    finally:
        engine.close()
    return float(np.mean(times[3:]))


@pytest.mark.benchmark(group="fig1b-query")
def test_fig1b_query_costs(benchmark, fig1_files, tmp_path):
    rows = []
    for n in FIG1_SIZES:
        awk = _awk_time(fig1_files[n], n)
        cold, hot, answers = _db_times(fig1_files[n], tmp_path, n)
        index = _index_time(fig1_files[n], n, answers)
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
