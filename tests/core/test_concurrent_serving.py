"""Concurrency stress suite for the serving layer.

Barrier-synchronized thread gangs hammer one engine with mixed read
workloads over shared and disjoint tables, maximizing interleavings of
warm reads, shared cold scans, result-cache probes and evictions.  The
invariants:

* every answer equals the single-threaded ground truth (no lost
  updates, no torn views);
* a cold (table, column-set) generation is raw-loaded at most once for
  store-keeping policies (shared-scan batching);
* the serving-layer counters add up exactly — every table view is
  counted once as warm hit, shared-scan reuse or shared-scan load, and
  every query once as cache hit or miss.

The gang size scales with ``REPRO_CONCURRENCY`` (default 4); the CI
``stress`` job runs the suite at 2 and 8, three times each, under
pytest-timeout.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from benchmarks.workload import TableSpec, generate_columns, materialize_csv
from repro import EngineConfig, NoDBEngine

#: Gang size for every stress test (CI stress job sets 2 and 8).
CONCURRENCY = max(2, int(os.environ.get("REPRO_CONCURRENCY", "4")))


def _make_tables(tmp_path, n: int, nrows: int = 1200):
    """n disjoint CSVs plus their in-memory ground-truth columns."""
    specs = [TableSpec(nrows=nrows, ncols=3, seed=700 + i) for i in range(n)]
    paths = [
        materialize_csv(spec, tmp_path / f"t{i}.csv") for i, spec in enumerate(specs)
    ]
    truths = [generate_columns(spec) for spec in specs]
    return paths, truths


def _run_gang(nthreads: int, job):
    """Run ``job(i)`` on ``nthreads`` threads, all released together."""
    barrier = threading.Barrier(nthreads)

    def wrapped(i):
        barrier.wait()
        return job(i)

    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        return list(pool.map(wrapped, range(nthreads)))


def _counters_add_up(engine, views_expected: int) -> None:
    c = engine.stats.counters
    provided = c.warm_hits + c.shared_scan_reuses + c.shared_scan_loads
    assert provided == views_expected, (
        f"counters don't add up: {c.snapshot()} != {views_expected} views"
    )


class TestDisjointTables:
    def test_parallel_cold_loads_one_per_table(self, tmp_path):
        """Each thread owns one table: loads never contend or duplicate."""
        paths, truths = _make_tables(tmp_path, CONCURRENCY)
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        try:
            for i, path in enumerate(paths):
                engine.attach(f"t{i}", path)

            def job(i):
                r = engine.query(f"select sum(a1), count(*) from t{i}")
                return i, int(r.rows()[0][0]), int(r.rows()[0][1])

            for i, total, count in _run_gang(CONCURRENCY, job):
                assert total == int(truths[i][0].sum())
                assert count == len(truths[i][0])
            # one shared-scan load per table, zero duplicates
            assert engine.stats.counters.shared_scan_loads == CONCURRENCY
            assert engine.stats.max_loads_per_signature() == 1
            _counters_add_up(engine, views_expected=CONCURRENCY)
        finally:
            engine.close()

    def test_warm_reads_fully_parallel(self, tmp_path):
        """After a serial warm-up, gangs only ever take the read side."""
        paths, truths = _make_tables(tmp_path, 2)
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        try:
            for i, path in enumerate(paths):
                engine.attach(f"t{i}", path)
                engine.query(f"select sum(a1) from t{i}")
            loads_before = engine.stats.counters.shared_scan_loads

            def job(i):
                t = i % 2
                r = engine.query(f"select sum(a1) from t{t}")
                return t, int(r.scalar())

            for t, got in _run_gang(CONCURRENCY, job):
                assert got == int(truths[t][0].sum())
            assert engine.stats.counters.shared_scan_loads == loads_before
            assert engine.stats.counters.warm_hits >= CONCURRENCY
        finally:
            engine.close()


class TestSharedTable:
    @pytest.mark.parametrize("policy", ["column_loads", "fullload", "splitfiles"])
    def test_one_cold_load_per_column_set_generation(self, policy, tmp_path):
        """A gang racing one cold table performs exactly one raw load."""
        paths, truths = _make_tables(tmp_path, 1)
        engine = NoDBEngine(EngineConfig(policy=policy))
        try:
            engine.attach("r", paths[0])
            expected = int(truths[0][1].sum())

            def job(i):
                return int(engine.query("select sum(a2) from r").scalar())

            for got in _run_gang(CONCURRENCY, job):
                assert got == expected
            assert engine.stats.max_loads_per_signature() == 1
            assert engine.stats.counters.shared_scan_loads == 1
            _counters_add_up(engine, views_expected=CONCURRENCY)
        finally:
            engine.close()

    def test_follower_queries_report_zero_file_bytes(self, tmp_path):
        """Per-query I/O is attributed to the thread that did it: the one
        shared-scan leader reports the raw read, every follower 0."""
        paths, _ = _make_tables(tmp_path, 1)
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        try:
            engine.attach("r", paths[0])

            def job(i):
                return engine.query("select sum(a1) from r").scalar()

            _run_gang(CONCURRENCY, job)
            per_query = [q.file_bytes_read for q in engine.stats.queries]
            assert sum(1 for b in per_query if b > 0) == 1, per_query
            # per-query deltas never exceed the engine-wide file counter
            entry = engine.catalog.get("r")
            assert engine.stats.total_file_bytes <= entry.file.stats.bytes_read
        finally:
            engine.close()

    def test_generation_resets_after_invalidation(self, tmp_path):
        """Editing the file starts a new generation: one more load, and
        the old generation's ledger entry is untouched."""
        paths, truths = _make_tables(tmp_path, 1, nrows=50)
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        try:
            engine.attach("r", paths[0])
            engine.query("select sum(a1) from r")
            # rewrite the file (row count kept, values changed)
            rows = [f"{i * 3},{i},{i}" for i in range(50)]
            staging = tmp_path / "staging.csv"
            staging.write_text("\n".join(rows) + "\n")
            os.replace(staging, paths[0])

            def job(i):
                return int(engine.query("select sum(a1) from r").scalar())

            expected = sum(i * 3 for i in range(50))
            for got in _run_gang(CONCURRENCY, job):
                assert got == expected
            # one load in generation 0, one in generation 1, none duplicated
            assert engine.stats.max_loads_per_signature() == 1
            generations = {sig[2] for sig in engine.stats.loads_by_signature}
            assert generations == {0, 1}
        finally:
            engine.close()

    def test_mixed_column_sets_do_not_duplicate(self, tmp_path):
        """Different threads want different column sets of one cold table:
        each distinct set loads at most once."""
        paths, truths = _make_tables(tmp_path, 1)
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        try:
            engine.attach("r", paths[0])
            cols = ["a1", "a2", "a3"]

            def job(i):
                col = cols[i % 3]
                return col, int(engine.query(f"select sum({col}) from r").scalar())

            for col, got in _run_gang(CONCURRENCY, job):
                idx = int(col[1]) - 1
                assert got == int(truths[0][idx].sum())
            assert engine.stats.max_loads_per_signature() == 1
            _counters_add_up(engine, views_expected=CONCURRENCY)
        finally:
            engine.close()


class TestMixedWorkload:
    def test_shared_plus_disjoint_under_eviction(self, tmp_path):
        """Random mixed reads over 3 tables with a tight budget: every
        answer still equals ground truth while eviction churns."""
        paths, truths = _make_tables(tmp_path, 3)
        engine = NoDBEngine(
            EngineConfig(
                policy="column_loads",
                memory_budget_bytes=2 * 1200 * 8 + 1024,
            )
        )
        try:
            for i, path in enumerate(paths):
                engine.attach(f"t{i}", path)
            rng = np.random.default_rng(9)
            jobs = []
            for _ in range(CONCURRENCY * 6):
                t = int(rng.integers(0, 3))
                c = int(rng.integers(1, 4))
                jobs.append((t, c))

            def job(i):
                t, c = jobs[i]
                got = int(engine.query(f"select sum(a{c}) from t{t}").scalar())
                return t, c, got

            results = _run_gang(min(CONCURRENCY, len(jobs)), job)
            # then drain the rest serially for extra churn
            for t, c in jobs[len(results):]:
                got = int(engine.query(f"select sum(a{c}) from t{t}").scalar())
                assert got == int(truths[t][c - 1].sum())
            for t, c, got in results:
                assert got == int(truths[t][c - 1].sum())
            assert engine.memory.stats.evictions > 0
        finally:
            engine.close()


class TestResultCacheConcurrency:
    def test_gang_on_one_query_hits_cache(self, tmp_path):
        """Hits + misses == queries; repeats are served from the cache."""
        paths, truths = _make_tables(tmp_path, 1)
        engine = NoDBEngine(EngineConfig(policy="column_loads", result_cache=True))
        try:
            engine.attach("r", paths[0])
            engine.query("select sum(a1) from r")  # populate

            def job(i):
                return int(engine.query("select sum(a1) from r").scalar())

            expected = int(truths[0][0].sum())
            for got in _run_gang(CONCURRENCY, job):
                assert got == expected
            c = engine.stats.counters
            assert (
                c.result_cache_hits + c.result_cache_misses
                == engine.stats.total_queries
            )
            assert c.result_cache_hits >= CONCURRENCY  # all gang queries hit
        finally:
            engine.close()

    def test_cache_races_file_edit_never_stale(self, tmp_path):
        """Readers racing an atomic rewrite see old XOR new totals only."""
        path = tmp_path / "live.csv"
        path.write_text("\n".join(f"{i},{i}" for i in range(80)) + "\n")
        engine = NoDBEngine(EngineConfig(policy="column_loads", result_cache=True))
        old_total = sum(range(80))
        new_total = sum(range(120))
        errors: list[Exception] = []
        stop = threading.Event()
        try:
            engine.attach("t", path)

            def reader():
                while not stop.is_set():
                    try:
                        got = int(engine.query("select sum(a2) from t").scalar())
                        assert got in (old_total, new_total), got
                    except Exception as exc:  # pragma: no cover - reporting
                        errors.append(exc)
                        return

            threads = [
                threading.Thread(target=reader) for _ in range(CONCURRENCY)
            ]
            for t in threads:
                t.start()
            staging = tmp_path / "live.csv.tmp"
            staging.write_text("\n".join(f"{i},{i}" for i in range(120)) + "\n")
            os.replace(staging, path)
            time.sleep(0.15)  # let readers observe the new file
            stop.set()
            for t in threads:
                t.join()
            assert not errors, errors[0]
            final = int(engine.query("select sum(a2) from t").scalar())
            assert final == new_total
        finally:
            stop.set()
            engine.close()


class TestDetachUnderLoad:
    def test_detach_racing_splitfiles_cold_load_no_deadlock(self, tmp_path):
        """Regression: detach (engine lock -> table lock) must not invert
        against the splitfiles cold path (table lock held while splitting)."""
        paths, truths = _make_tables(tmp_path, 2, nrows=400)
        engine = NoDBEngine(
            EngineConfig(
                policy="splitfiles",
                # throttle stretches the cold load so detach really races it
                io_bandwidth_bytes_per_sec=2 * 2**20,
            )
        )
        try:
            engine.attach("keep", paths[0])
            engine.attach("drop", paths[1])
            started = threading.Event()

            def load():
                started.set()
                return int(engine.query("select sum(a1) from keep").scalar())

            def drop():
                started.wait(5)
                engine.detach("drop")
                return True

            with ThreadPoolExecutor(max_workers=2) as pool:
                f_load = pool.submit(load)
                f_drop = pool.submit(drop)
                assert f_drop.result(timeout=30)
                assert f_load.result(timeout=30) == int(truths[0][0].sum())
            assert engine.tables() == ["keep"]
        finally:
            engine.close()


class TestDetachTombstone:
    def test_tombstoned_entry_refuses_to_serve(self, tmp_path):
        """A query that resolved an entry a concurrent detach then
        tombstoned must fail like a post-detach lookup, not silently
        repopulate the unlisted entry."""
        from repro.errors import CatalogError

        paths, _ = _make_tables(tmp_path, 1, nrows=50)
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        try:
            engine.attach("r", paths[0])
            engine.query("select sum(a1) from r")
            entry = engine.catalog.get("r")
            entry.detached = True  # what detach() sets under the write lock
            with pytest.raises(CatalogError, match="detached"):
                engine.query("select sum(a1) from r")
        finally:
            entry.detached = False
            engine.close()


class TestPolicySwitchUnderLoad:
    def test_set_policy_mid_gang_keeps_answers(self, tmp_path):
        """Switching policies while a gang queries never corrupts answers."""
        paths, truths = _make_tables(tmp_path, 1)
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        try:
            engine.attach("r", paths[0])
            expected = int(truths[0][0].sum())
            barrier = threading.Barrier(CONCURRENCY + 1)

            def job(i):
                barrier.wait()
                return int(engine.query("select sum(a1) from r").scalar())

            with ThreadPoolExecutor(max_workers=CONCURRENCY + 1) as pool:
                futures = [pool.submit(job, i) for i in range(CONCURRENCY)]
                barrier.wait()
                engine.set_policy("partial_v2")
                for future in futures:
                    assert future.result() == expected
        finally:
            engine.close()
