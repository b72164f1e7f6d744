"""Shared benchmark fixtures: scaled datasets and engine builders.

Dataset sizes default to values that keep the whole bench suite under a
few minutes of wall-clock on a laptop while preserving the paper's cost
*shapes* (see DESIGN.md's substitution table).  Set ``REPRO_BENCH_SCALE``
to a float to grow or shrink everything proportionally, e.g.::

    REPRO_BENCH_SCALE=4 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os

import pytest

from benchmarks.workload import TableSpec, materialize_csv, materialize_join_pair
from repro import EngineConfig, NoDBEngine

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int) -> int:
    return max(100, int(n * SCALE))


#: Figure 1 input-size axis (paper: 10^5 .. 10^9 tuples; scaled here).
FIG1_SIZES = [scaled(10_000), scaled(50_000), scaled(200_000)]
FIG3_ROWS = scaled(50_000)
FIG4_ROWS = scaled(20_000)
JOIN_ROWS = scaled(60_000)


@pytest.fixture(scope="session")
def fig1_files(tmp_path_factory):
    """One 4-column CSV per Figure 1 input size."""
    root = tmp_path_factory.mktemp("fig1")
    return {
        n: materialize_csv(TableSpec(nrows=n, ncols=4, seed=17), root / f"r{n}.csv")
        for n in FIG1_SIZES
    }


@pytest.fixture(scope="session")
def fig3_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("fig3")
    return materialize_csv(
        TableSpec(nrows=FIG3_ROWS, ncols=4, seed=23), root / "r.csv"
    )


@pytest.fixture(scope="session")
def fig4_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("fig4")
    return materialize_csv(
        TableSpec(nrows=FIG4_ROWS, ncols=12, seed=29), root / "r.csv"
    )


@pytest.fixture(scope="session")
def join_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("join")
    return materialize_join_pair(
        JOIN_ROWS, root / "left.csv", root / "right.csv", payload_cols=3, seed=31
    )


def fresh_engine(policy: str, path, table: str = "r", **config) -> NoDBEngine:
    engine = NoDBEngine(EngineConfig(policy=policy, **config))
    engine.attach(table, path)
    return engine
