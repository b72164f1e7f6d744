"""Concurrent queries against one engine (paper section 5.4).

"Multiple queries might be asking for the same column at the same time,
meaning that these queries have to touch and update the same loaded table
with data brought from the flat file."

The engine implements the paper's "simple solution": loading/metadata is
serialized, execution runs over immutable fragment snapshots.  These tests
hammer one engine from many threads and require every answer to equal the
single-threaded ground truth — including while eviction and invalidation
churn the store underneath.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from benchmarks.workload import TableSpec, generate_columns, materialize_csv
from repro import EngineConfig, NoDBEngine, POLICIES


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    spec = TableSpec(nrows=3000, ncols=4, seed=55)
    path = materialize_csv(spec, tmp_path_factory.mktemp("conc") / "r.csv")
    return path, generate_columns(spec)


def ground_truth(columns, lo, hi):
    a1 = columns[0]
    mask = (a1 > lo) & (a1 < hi)
    return int(a1[mask].sum()), int(mask.sum())


@pytest.mark.parametrize("policy", ["column_loads", "partial_v2", "splitfiles"])
def test_parallel_queries_all_correct(data, policy):
    path, columns = data
    engine = NoDBEngine(EngineConfig(policy=policy))
    engine.attach("r", path)
    rng = np.random.default_rng(2)
    jobs = []
    for _ in range(40):
        lo = int(rng.integers(0, 2000))
        hi = lo + int(rng.integers(1, 800))
        jobs.append((lo, hi))

    def run(job):
        lo, hi = job
        r = engine.query(
            f"select sum(a1), count(*) from r where a1 > {lo} and a1 < {hi}"
        )
        return job, (int(r.rows()[0][0]) if r.rows()[0][1] else 0, int(r.rows()[0][1]))

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(run, jobs))

    for (lo, hi), got in results:
        total, count = ground_truth(columns, lo, hi)
        expected = (total if count else 0, count)
        assert got == expected, f"range ({lo},{hi})"
    engine.close()


def test_parallel_queries_under_eviction(data):
    path, columns = data
    engine = NoDBEngine(
        EngineConfig(policy="column_loads", memory_budget_bytes=3000 * 8 + 1024)
    )
    engine.attach("r", path)

    def run(i):
        col = f"a{(i % 4) + 1}"
        r = engine.query(f"select sum({col}) from r")
        return col, int(r.scalar())

    with ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(run, range(24)))

    expected = {f"a{i + 1}": int(columns[i].sum()) for i in range(4)}
    for col, got in results:
        assert got == expected[col]
    assert engine.memory.stats.evictions > 0  # churn actually happened
    engine.close()


def test_concurrent_queries_during_file_edit(tmp_path):
    """Readers racing an *atomic* file replacement see old or new data,
    never garbage.  (In-place truncate-and-rewrite is inherently unsafe
    for any reader, DBMS or not — editors and exporters rename.)"""
    import os

    path = tmp_path / "live.csv"
    path.write_text("\n".join(f"{i},{i}" for i in range(100)) + "\n")
    engine = NoDBEngine(EngineConfig(policy="partial_v2"))
    engine.attach("t", path)
    stop = threading.Event()
    errors: list[Exception] = []
    valid_answers = {sum(range(100)), sum(range(150))}

    def reader():
        while not stop.is_set():
            try:
                got = int(engine.query("select sum(a2) from t").scalar())
                assert got in valid_answers, got
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)
                return

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    time.sleep(0.05)
    staging = tmp_path / "live.csv.tmp"
    staging.write_text("\n".join(f"{i},{i}" for i in range(150)) + "\n")
    os.replace(staging, path)  # atomic swap: readers see old XOR new
    time.sleep(0.15)
    stop.set()
    for t in threads:
        t.join()
    engine.close()
    assert not errors, errors[0]
