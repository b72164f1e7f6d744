"""Chaos differential oracle: random faults must never change answers.

The resilience contract, stated as an oracle: under *any* fault plan,
every query either returns exactly what the serial re-reading
:class:`~repro.baselines.csv_engine.CSVEngine` oracle returns, or raises
a taxonomy :class:`~repro.errors.ReproError` — never a wrong answer,
never a silent drop, and never a leaked pin, scan flight or admission
slot afterwards.  Fault plans, tables, dialects and engine knobs are all
drawn from one seeded RNG, so every failure reproduces from its seed
(override the seed list with ``REPRO_CHAOS_SEEDS=7,8,9``).

CI runs this under ``pytest-timeout`` (the ``chaos`` job): a deadlock
introduced on any degraded path fails the build instead of hanging it.
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro import EngineConfig, NoDBEngine, faults
from repro.client import RemoteConnection
from repro.config import POLICIES
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.server import ReproServer

from harness import (
    DIALECTS,
    make_workload,
    normalize,
    oracle_results,
    render_table,
)

SEEDS = [
    int(s)
    for s in os.environ.get("REPRO_CHAOS_SEEDS", "101,202,303").split(",")
    if s.strip()
]

#: Points that can fire inside the engine's own query path.
ENGINE_POINTS = (
    "flatfile.read",
    "flatfile.short_read",
    "persist.write",
    "persist.commit",
    "persist.read",
)
#: The serving layer adds request crashes and result-disk faults.
SERVER_POINTS = ENGINE_POINTS + (
    "server.request",
    "results.write",
    "results.read",
    "results.unlink",
)


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def _random_table(rng: random.Random) -> list[list]:
    nrows = rng.randint(20, 120)
    columns: list[list] = [[rng.randint(-1000, 1000) for _ in range(nrows)]]
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(("int", "float", "str"))
        if kind == "int":
            columns.append([rng.randint(-(10**6), 10**6) for _ in range(nrows)])
        elif kind == "float":
            columns.append([rng.randint(-8000, 8000) / 8 for _ in range(nrows)])
        else:
            letters = "bcdghjklmpqrstuvwxyz"
            columns.append(
                [
                    "v" + "".join(rng.choices(letters, k=rng.randint(0, 5)))
                    for _ in range(nrows)
                ]
            )
    return columns


def _random_plan(rng: random.Random, points: tuple[str, ...]) -> FaultPlan:
    """A random mix of transient bursts and low-probability persistent faults."""
    specs: dict[str, FaultSpec] = {}
    for point in points:
        roll = rng.random()
        if roll < 0.35:
            continue  # this point stays healthy
        if roll < 0.55:
            specs[point] = FaultSpec(
                times=None, probability=rng.choice((0.1, 0.25, 0.5))
            )
        else:
            specs[point] = FaultSpec(
                times=rng.randint(1, 3), after=rng.randint(0, 2)
            )
    return FaultPlan(specs, seed=rng.randint(0, 2**20))


def _random_config(
    rng: random.Random, tmp_path, tag: str, monkeypatch
) -> EngineConfig:
    """Draw an engine config; the read-retry and persist-failure limits
    are module constants, so their draws are patched in for the case."""
    policy = rng.choice(POLICIES)
    monkeypatch.setattr(faults, "IO_RETRY_BACKOFF_S", 0.0)
    monkeypatch.setattr(faults, "IO_RETRY_ATTEMPTS", rng.choice((2, 3)))
    store_dir = (tmp_path / f"store-{tag}") if rng.random() < 0.5 else None
    monkeypatch.setattr(
        "repro.core.lifecycle.PERSIST_FAILURE_LIMIT", rng.choice((1, 3))
    )
    return EngineConfig(
        policy=policy,
        fault_plan=None,  # set by the caller
        store_dir=store_dir,
    )


def _check_workload(engine, queries, expected, failures: list) -> None:
    """Each answer is the oracle's, or a clean taxonomy error."""
    for i, (query, want) in enumerate(zip(queries, expected)):
        try:
            got = normalize(engine.query(query))
        except ReproError as exc:
            failures.append((i, exc))
            continue
        assert got == want, (
            f"query#{i} {query!r} under faults: {got!r} != oracle {want!r}"
        )


def _assert_engine_clean(engine) -> None:
    with engine.memory._lock:
        pinned = {
            key: frag.pins
            for key, frag in engine.memory.fragments.items()
            if frag.pins
        }
    assert not pinned, f"pinned fragments leaked under faults: {pinned}"
    assert engine._scan_gate.in_flight() == 0, "shared-scan flights leaked"


# ---------------------------------------------------------------------------
# engine phase
# ---------------------------------------------------------------------------


@pytest.mark.timeout(180)
@pytest.mark.parametrize("seed", SEEDS)
def test_engine_answers_match_oracle_under_random_faults(
    seed, tmp_path, monkeypatch
):
    rng = random.Random(seed)
    for round_no in range(4):
        columns = _random_table(rng)
        dialect = rng.choice(DIALECTS)
        directory = tmp_path / f"round{round_no}"
        directory.mkdir()
        path, kwargs = render_table(directory, columns, dialect)
        bounds = (rng.randint(-1000, 0), rng.randint(0, 1000))
        queries = make_workload(columns, bounds)
        expected = oracle_results(path, kwargs, queries)

        config = _random_config(rng, directory, f"{seed}-{round_no}", monkeypatch)
        config.fault_plan = _random_plan(rng, ENGINE_POINTS)
        failures: list = []
        with NoDBEngine(config) as engine:
            try:
                engine.attach("t", path, **kwargs)
            except ReproError:
                continue  # attach died cleanly under faults: acceptable
            _check_workload(engine, queries, expected, failures)
            # Replay warm: a query that failed mid-load must not have
            # left half-loaded state that changes later answers.
            _check_workload(engine, queries, expected, failures)
            _assert_engine_clean(engine)


@pytest.mark.timeout(180)
@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_engine_answers_match_oracle_under_random_faults(
    seed, tmp_path, monkeypatch
):
    rng = random.Random(seed * 31 + 5)
    columns = _random_table(rng)
    path, kwargs = render_table(tmp_path, columns, rng.choice(DIALECTS))
    queries = make_workload(columns, (rng.randint(-1000, 0), rng.randint(0, 1000)))
    expected = oracle_results(path, kwargs, queries)

    config = _random_config(rng, tmp_path, str(seed), monkeypatch)
    config.fault_plan = _random_plan(rng, ENGINE_POINTS)
    nthreads = 3
    barrier = threading.Barrier(nthreads)
    errors: list = []

    with NoDBEngine(config) as engine:
        engine_failures: list = []
        try:
            engine.attach("t", path, **kwargs)
        except ReproError:
            return  # attach died cleanly under faults: acceptable

        def replay():
            try:
                barrier.wait(timeout=60)
                _check_workload(engine, queries, expected, engine_failures)
            except BaseException as exc:  # assertion or leak → fail the test
                errors.append(exc)

        threads = [
            threading.Thread(target=replay, daemon=True) for _ in range(nthreads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, f"concurrent chaos violations: {errors!r}"
        _assert_engine_clean(engine)


# ---------------------------------------------------------------------------
# HTTP phase
# ---------------------------------------------------------------------------


@pytest.mark.timeout(180)
@pytest.mark.parametrize("seed", SEEDS)
def test_served_answers_match_oracle_under_random_faults(
    seed, tmp_path, monkeypatch
):
    rng = random.Random(seed * 17 + 3)
    columns = _random_table(rng)
    path, kwargs = render_table(tmp_path, columns, "csv")
    queries = make_workload(columns, (rng.randint(-1000, 0), rng.randint(0, 1000)))
    expected = oracle_results(path, kwargs, queries)

    config = _random_config(rng, tmp_path, str(seed), monkeypatch)
    config.fault_plan = _random_plan(rng, SERVER_POINTS)
    engine = NoDBEngine(config)
    try:
        engine.attach("t", path, **kwargs)
    except ReproError:
        engine.close()
        return  # attach died cleanly under faults: acceptable
    with ReproServer(engine, port=0, owns_engine=True) as server:
        server.start()
        nclients = 3
        barrier = threading.Barrier(nclients)
        errors: list = []

        def run_client(n: int):
            conn = RemoteConnection(
                server.url,
                client_id=f"chaos-{n}",
                max_retries=2,
                backoff_s=0.001,
                retry_after_cap_s=0.01,
            )
            try:
                barrier.wait(timeout=60)
                for i, (query, want) in enumerate(zip(queries, expected)):
                    try:
                        got = normalize(conn.execute(query))
                    except ReproError:
                        continue  # clean refusal/failure: acceptable
                    assert got == want, (
                        f"client {n} query#{i} {query!r}: "
                        f"{got!r} != oracle {want!r}"
                    )
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=run_client, args=(n,), daemon=True)
            for n in range(nclients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, f"served chaos violations: {errors!r}"

        # No admission slot may outlive its request (done-callbacks can
        # land a beat after the response, hence the short grace loop).
        deadline = time.monotonic() + 10
        while server.admission.snapshot()["inflight"] > 0:
            assert time.monotonic() < deadline, (
                f"admission slots leaked: {server.admission.snapshot()}"
            )
            time.sleep(0.01)
        _assert_engine_clean(server.engine)
