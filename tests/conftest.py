"""Shared fixtures: deterministic datasets on disk + engine factories.

Also the home of the Hypothesis profiles: CI runs with
``HYPOTHESIS_PROFILE=ci`` (derandomized, so the property suites are
deterministic and a red build is reproducible), while local runs keep
Hypothesis's randomized exploration.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from benchmarks.workload import TableSpec, generate_columns, materialize_csv
from repro import EngineConfig, NoDBEngine

settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session")
def small_spec() -> TableSpec:
    return TableSpec(nrows=500, ncols=4, seed=101)


@pytest.fixture(scope="session")
def small_columns(small_spec):
    return generate_columns(small_spec)


@pytest.fixture(scope="session")
def small_csv(tmp_path_factory, small_spec):
    """A 500x4 unique-int CSV shared by read-only tests."""
    path = tmp_path_factory.mktemp("data") / "small.csv"
    return materialize_csv(small_spec, path)


@pytest.fixture(scope="session")
def wide_spec() -> TableSpec:
    return TableSpec(nrows=300, ncols=12, seed=202)


@pytest.fixture(scope="session")
def wide_csv(tmp_path_factory, wide_spec):
    path = tmp_path_factory.mktemp("data") / "wide.csv"
    return materialize_csv(wide_spec, path)


@pytest.fixture
def engine_factory(small_csv):
    """Build engines over the shared small dataset; closes them at teardown."""
    engines: list[NoDBEngine] = []

    def make(policy: str = "column_loads", **config_kwargs) -> NoDBEngine:
        engine = NoDBEngine(EngineConfig(policy=policy, **config_kwargs))
        engine.attach("r", small_csv)
        engines.append(engine)
        return engine

    yield make
    for engine in engines:
        engine.close()


@pytest.fixture
def mixed_csv(tmp_path):
    """A small table with int, float and string columns plus a header."""
    path = tmp_path / "mixed.csv"
    rows = [
        "id,price,name,qty",
        "1,1.5,apple,10",
        "2,2.25,banana,20",
        "3,0.75,cherry,30",
        "4,10.0,date,40",
        "5,5.5,elderberry,50",
    ]
    path.write_text("\n".join(rows) + "\n")
    return path


def brute_force_q(columns: list[np.ndarray], bounds, agg_cols) -> list:
    """NumPy ground truth for conjunctive-range aggregate queries."""
    mask = np.ones(len(columns[0]), dtype=bool)
    for (col_idx, lo, hi) in bounds:
        mask &= (columns[col_idx] > lo) & (columns[col_idx] < hi)
    out = []
    for func, col_idx in agg_cols:
        vals = columns[col_idx][mask]
        if func == "sum":
            out.append(vals.sum())
        elif func == "min":
            out.append(vals.min())
        elif func == "max":
            out.append(vals.max())
        elif func == "avg":
            out.append(vals.mean())
        elif func == "count":
            out.append(len(vals))
    return out
