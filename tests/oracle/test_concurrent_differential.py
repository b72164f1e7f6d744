"""Concurrent differential testing: the serving layer vs. the serial oracle.

The concurrency tentpole (per-table RW locks, shared-scan batching, the
query-result cache) must be *invisible* in every answer: for every
dialect × policy × thread count × engine state (cold store, warm store,
populated result cache), replaying a workload from K concurrent threads
against one engine must produce exactly the answers the serial
single-threaded :class:`CSVEngine` oracle (the external policy) gives.

Shared-scan batching additionally has an observable efficiency contract:
for store-keeping policies, a cold (table, column-set) generation is
loaded from the raw file **at most once** no matter how many threads
raced for it — asserted through ``EngineStatistics.loads_by_signature``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from harness import (
    DIALECTS,
    POLICIES,
    make_workload,
    oracle_results,
    render_table,
    run_workload_concurrently,
    tables,
)

from repro import EngineConfig, NoDBEngine
from repro.workload import TableSpec, generate_columns

#: Thread counts of the acceptance matrix.
THREAD_COUNTS = (2, 4)

#: Engine states the matrix must cover: a cold store, a store pre-warmed
#: by one serial replay, and a pre-populated result cache.
STATES = ("cold", "warm", "cached")

#: Policies that keep loaded fragments — only these can promise "one raw
#: load per cold (table, column-set) generation" (stateless policies
#: re-scan per query by design).
STORE_KEEPING = ("fullload", "column_loads", "splitfiles")


def _seeded_table(nrows: int = 160, ncols: int = 3) -> list[list]:
    cols = generate_columns(TableSpec(nrows=nrows, ncols=ncols, seed=1311))
    return [c.tolist() for c in cols]


def _assert_threads_match_oracle(results, expected, label: str) -> None:
    for tid, answers in enumerate(results):
        for i, (got, want) in enumerate(zip(answers, expected)):
            assert got == want, (
                f"[{label}] thread {tid} query#{i}: {got!r} != {want!r}"
            )


def _run_state(engine, queries, expected, state: str, nthreads: int, label: str):
    if state in ("warm", "cached"):
        # one serial replay first: fills the store — and, under
        # result_cache=True, the cache.
        for i, (query, want) in enumerate(zip(queries, expected)):
            from harness import normalize

            got = normalize(engine.query(query))
            assert got == want, f"[{label}] serial prewarm query#{i}"
    results = run_workload_concurrently(engine, queries, nthreads)
    _assert_threads_match_oracle(results, expected, label)


@pytest.mark.parametrize("nthreads", THREAD_COUNTS)
@pytest.mark.parametrize("dialect", DIALECTS)
def test_concurrent_matrix_matches_oracle(dialect, nthreads, tmp_path):
    """dialect × policy × {2,4} threads × cold/warm/cached == oracle."""
    columns = _seeded_table()
    path, kwargs = render_table(tmp_path, columns, dialect)
    queries = make_workload(columns, bounds=(-50, 420))
    expected = oracle_results(path, kwargs, queries)
    for policy in POLICIES:
        for state in STATES:
            label = f"{dialect} {policy} {state} x{nthreads}"
            engine = NoDBEngine(
                EngineConfig(policy=policy, result_cache=(state == "cached"))
            )
            try:
                engine.attach("t", path, **kwargs)
                _run_state(engine, queries, expected, state, nthreads, label)
                counters = engine.stats.counters
                if state == "cached":
                    # the serial prewarm filled the cache: the concurrent
                    # replay must actually hit it.
                    assert counters.result_cache_hits > 0, label
                    assert (
                        counters.result_cache_hits + counters.result_cache_misses
                        == engine.stats.total_queries
                    ), label
                if policy in STORE_KEEPING:
                    assert engine.stats.max_loads_per_signature() <= 1, (
                        f"{label}: duplicate raw-file load for one cold "
                        f"(table, column-set) generation: "
                        f"{engine.stats.loads_by_signature}"
                    )
            finally:
                engine.close()


@pytest.mark.parametrize("policy", STORE_KEEPING)
def test_shared_scan_batching_one_load_per_generation(policy, tmp_path):
    """N threads × one cold table: exactly one raw load per column-set."""
    columns = _seeded_table(nrows=300)
    path, kwargs = render_table(tmp_path, columns, "csv")
    names = [f"a{i + 1}" for i in range(len(columns))]
    query = f"select {', '.join(f'sum({n})' for n in names)} from t"
    engine = NoDBEngine(EngineConfig(policy=policy))
    try:
        engine.attach("t", path, **kwargs)
        expected = oracle_results(path, kwargs, [query])[0]
        results = run_workload_concurrently(engine, [query], nthreads=8)
        for answers in results:
            assert answers[0] == expected
        # All 8 threads asked for the same cold column-set: shared-scan
        # batching must have loaded the raw file exactly once.
        assert engine.stats.counters.shared_scan_loads == 1
        assert engine.stats.max_loads_per_signature() == 1
        counters = engine.stats.counters
        assert (
            counters.warm_hits
            + counters.shared_scan_reuses
            + counters.shared_scan_loads
            == 8
        )
    finally:
        engine.close()


@pytest.mark.parametrize("nthreads", THREAD_COUNTS)
@pytest.mark.parametrize("policy", POLICIES)
def test_concurrent_with_persistent_store_and_restart(policy, nthreads, tmp_path):
    """Persistence must be invisible too: with a persistent store enabled,
    a workload split across a simulated restart — engine A runs it
    concurrently and exits, a fresh engine B on the same ``store_dir``
    replays all of it concurrently — equals the serial oracle, and the
    store-keeping policies actually restore restart-warm."""
    columns = _seeded_table()
    path, kwargs = render_table(tmp_path, columns, "csv")
    queries = make_workload(columns, bounds=(-50, 420))
    expected = oracle_results(path, kwargs, queries)
    store_dir = tmp_path / "store"
    cfg = dict(policy=policy, store_dir=store_dir)
    label = f"persist {policy} x{nthreads}"

    engine_a = NoDBEngine(EngineConfig(**cfg))
    try:
        engine_a.attach("t", path, **kwargs)
        results = run_workload_concurrently(engine_a, queries, nthreads)
        _assert_threads_match_oracle(results, expected, f"{label} phase A")
        engine_a.flush_persistent_store()
    finally:
        engine_a.close()

    engine_b = NoDBEngine(EngineConfig(**cfg))
    try:
        engine_b.attach("t", path, **kwargs)
        results = run_workload_concurrently(engine_b, queries, nthreads)
        _assert_threads_match_oracle(results, expected, f"{label} phase B")
        counters = engine_b.stats.counters
        if policy in STORE_KEEPING:
            assert engine_a.stats.counters.persist_writes >= 1, label
            assert counters.restart_warm_hits >= 1, (
                f"{label}: engine B never restored from the store "
                f"(counters: {counters.snapshot()})"
            )
            assert engine_b.stats.max_loads_per_signature() <= 1, label
    finally:
        engine_b.close()


@pytest.mark.parametrize("nthreads", THREAD_COUNTS)
@pytest.mark.parametrize("policy", STORE_KEEPING)
def test_concurrent_replay_across_append_matches_oracle(policy, nthreads, tmp_path):
    """Growth must be invisible too: replay a workload concurrently, append
    rows to the live file, replay again — both phases equal the serial
    oracle over the bytes of their moment, and the stale fingerprint was
    recognized as an append (state extended, not wiped)."""
    columns = _seeded_table()
    path, kwargs = render_table(tmp_path, columns, "csv")
    queries = make_workload(columns, bounds=(-50, 420))
    expected = oracle_results(path, kwargs, queries)
    label = f"append {policy} x{nthreads}"

    engine = NoDBEngine(EngineConfig(policy=policy))
    try:
        engine.attach("t", path, **kwargs)
        results = run_workload_concurrently(engine, queries, nthreads)
        _assert_threads_match_oracle(results, expected, f"{label} pre")

        extra = [[v + 7 for v in col[:40]] for col in columns]
        from repro.flatfile.writer import format_value

        with open(path, "a") as fh:
            for i in range(len(extra[0])):
                fh.write(",".join(format_value(c[i]) for c in extra) + "\n")

        expected_after = oracle_results(path, kwargs, queries)
        assert expected_after != expected  # the append must be visible
        results = run_workload_concurrently(engine, queries, nthreads)
        _assert_threads_match_oracle(results, expected_after, f"{label} post")
        counters = engine.stats.counters
        assert counters.append_extensions >= 1, (
            f"{label}: stale fingerprint was not recognized as an append "
            f"(counters: {counters.snapshot()})"
        )
        assert counters.store_invalidations == 0, label
    finally:
        engine.close()


@pytest.mark.parametrize("nthreads", THREAD_COUNTS)
@pytest.mark.parametrize("policy", POLICIES)
def test_concurrent_multi_file_matches_oracle_on_concatenation(
    policy, nthreads, tmp_path
):
    """A glob attach over split part files must answer — under concurrent
    replay — exactly like the oracle over the concatenated file (for
    headerless CSV, concatenation *is* the union)."""
    columns = _seeded_table()
    whole, kwargs = render_table(tmp_path, columns, "csv")
    half = len(columns[0]) // 2
    parts_dir = tmp_path / "parts"
    parts_dir.mkdir()
    text = whole.read_text().splitlines(keepends=True)
    (parts_dir / "part-000.csv").write_text("".join(text[:half]))
    (parts_dir / "part-001.csv").write_text("".join(text[half:]))

    queries = make_workload(columns, bounds=(-50, 420))
    expected = oracle_results(whole, kwargs, queries)
    label = f"multi {policy} x{nthreads}"

    engine = NoDBEngine(EngineConfig(policy=policy))
    try:
        engine.attach("t", str(parts_dir / "part-*.csv"), **kwargs)
        results = run_workload_concurrently(engine, queries, nthreads)
        _assert_threads_match_oracle(results, expected, f"{label} cold")
        results = run_workload_concurrently(engine, queries, nthreads)
        _assert_threads_match_oracle(results, expected, f"{label} warm")
    finally:
        engine.close()


@settings(max_examples=4, deadline=None)
@given(columns=tables())
@pytest.mark.parametrize("policy", POLICIES)
def test_hypothesis_workloads_concurrent(policy, columns):
    """Random tables/workloads: 2-thread replay equals the serial oracle,
    cold and with the result cache enabled."""
    with tempfile.TemporaryDirectory(prefix="repro-conc-oracle-") as tmp:
        path, kwargs = render_table(Path(tmp), columns, "csv")
        queries = make_workload(columns, bounds=(-100, 400))
        expected = oracle_results(path, kwargs, queries)
        for cached in (False, True):
            engine = NoDBEngine(EngineConfig(policy=policy, result_cache=cached))
            try:
                engine.attach("t", path, **kwargs)
                results = run_workload_concurrently(engine, queries, nthreads=2)
                _assert_threads_match_oracle(
                    results, expected, f"{policy} cached={cached}"
                )
            finally:
                engine.close()
