"""Datasets and query sequences for the paper's experiments.

"The data set consists of a four-attribute table, which has as values
unique integers randomly distributed in the columns." (section 2)

Every column of a generated table is an independent random permutation of
``0..nrows-1`` — unique integers, uniform, zero correlation across columns
— which makes query selectivity exactly computable from range width (the
property the query generator relies on).  Generation is seeded and
deterministic so benches and tests are reproducible.

Q1 (Figure 1, section 2)::

    select sum(a1), min(a4), max(a3), avg(a2)
    from R
    where a1 > v1 and a1 < v2 and a2 > v3 and a2 < v4

Q2 (Figures 3 and 4, sections 3.2 / 4.2)::

    select sum(ai), avg(aj)
    from R
    where ai > v1 and ai < v2 and aj > v3 and aj < v4

Queries are "always 10% selective".  With independent uniform unique-int
columns, a conjunction of two range predicates of per-column selectivity
``sqrt(s)`` is ``s``-selective overall, so range widths are chosen as
``sqrt(selectivity) * nrows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.flatfile.writer import write_csv


@dataclass(frozen=True)
class TableSpec:
    """Shape of one generated table."""

    nrows: int
    ncols: int
    seed: int = 7

    def __post_init__(self) -> None:
        if self.nrows <= 0 or self.ncols <= 0:
            raise ValueError("nrows and ncols must be positive")

    @property
    def column_names(self) -> list[str]:
        return [f"a{i + 1}" for i in range(self.ncols)]


def generate_columns(spec: TableSpec) -> list[np.ndarray]:
    """Generate the columns: each an independent permutation of 0..n-1."""
    rng = np.random.default_rng(spec.seed)
    return [rng.permutation(spec.nrows).astype(np.int64) for _ in range(spec.ncols)]


def materialize_csv(spec: TableSpec, path: Path | str) -> Path:
    """Generate and write the table as a headerless CSV (paper format)."""
    return write_csv(Path(path), generate_columns(spec))


def generate_join_pair(
    nrows: int, payload_cols: int = 3, seed: int = 11
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Two tables with a perfect 1-to-1 join on their first column.

    Reproduces the section 2.2 join setup: both tables contain the same
    key set (``0..nrows-1``) in different random orders, plus independent
    integer payload columns for the aggregations.
    """
    rng = np.random.default_rng(seed)
    left = [rng.permutation(nrows).astype(np.int64)]
    right = [rng.permutation(nrows).astype(np.int64)]
    for _ in range(payload_cols):
        left.append(rng.permutation(nrows).astype(np.int64))
        right.append(rng.permutation(nrows).astype(np.int64))
    return left, right


def materialize_join_pair(
    nrows: int,
    left_path: Path | str,
    right_path: Path | str,
    payload_cols: int = 3,
    seed: int = 11,
) -> tuple[Path, Path]:
    """Write the join pair as two CSV files."""
    left, right = generate_join_pair(nrows, payload_cols, seed)
    return (
        write_csv(Path(left_path), left),
        write_csv(Path(right_path), right),
    )


@dataclass(frozen=True)
class RangeQuery:
    """One instantiated conjunctive range query."""

    sql: str
    columns: tuple[str, ...]
    bounds: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        return self.sql


def _pick_range(rng: np.random.Generator, nrows: int, fraction: float) -> tuple[int, int]:
    """Exclusive-bounds (v_lo, v_hi) selecting ~``fraction`` of 0..nrows-1.

    The predicate template is strict (``a > lo and a < hi``), so the
    number of qualifying values is ``hi - lo - 1``.
    """
    width = max(1, round(fraction * nrows))
    lo = int(rng.integers(-1, nrows - width))
    return lo, lo + width + 1


def make_q1(
    nrows: int,
    selectivity: float = 0.10,
    rng: np.random.Generator | None = None,
    table: str = "r",
) -> RangeQuery:
    """Instantiate the paper's Q1 on a 4-column table."""
    rng = rng or np.random.default_rng(0)
    per_column = math.sqrt(selectivity)
    v1, v2 = _pick_range(rng, nrows, per_column)
    v3, v4 = _pick_range(rng, nrows, per_column)
    sql = (
        f"select sum(a1), min(a4), max(a3), avg(a2) from {table} "
        f"where a1 > {v1} and a1 < {v2} and a2 > {v3} and a2 < {v4}"
    )
    return RangeQuery(sql, ("a1", "a2", "a3", "a4"), ((v1, v2), (v3, v4)))


def make_q2(
    nrows: int,
    col_a: str,
    col_b: str,
    selectivity: float = 0.10,
    rng: np.random.Generator | None = None,
    table: str = "r",
) -> RangeQuery:
    """Instantiate the paper's Q2 on an arbitrary column pair."""
    rng = rng or np.random.default_rng(0)
    per_column = math.sqrt(selectivity)
    v1, v2 = _pick_range(rng, nrows, per_column)
    v3, v4 = _pick_range(rng, nrows, per_column)
    sql = (
        f"select sum({col_a}), avg({col_b}) from {table} "
        f"where {col_a} > {v1} and {col_a} < {v2} "
        f"and {col_b} > {v3} and {col_b} < {v4}"
    )
    return RangeQuery(sql, (col_a, col_b), ((v1, v2), (v3, v4)))


def figure3_sequence(
    nrows: int,
    selectivity: float = 0.10,
    seed: int = 42,
    table: str = "r",
) -> list[RangeQuery]:
    """The 20-query sequence of Figure 3 on a 4-column table.

    "Here we first run 10 random queries that use the first two attributes
    of the file and then we run another 10 that use the last two."
    """
    rng = np.random.default_rng(seed)
    first = [make_q2(nrows, "a1", "a2", selectivity, rng, table) for _ in range(10)]
    second = [make_q2(nrows, "a3", "a4", selectivity, rng, table) for _ in range(10)]
    return first + second


def exploration_sequence(
    nrows: int,
    col_a: str = "a1",
    col_b: str = "a2",
    depth: int = 4,
    regions: int = 3,
    seed: int = 57,
    table: str = "r",
) -> list[RangeQuery]:
    """An exploratory "zoom" workload (paper section 3.1.2).

    "The user 'walks' through the data space, periodically zooming in and
    out of specific data areas."  For each of ``regions`` starting areas,
    the sequence emits one wide query and then ``depth - 1`` successive
    zoom-ins, each range strictly nested in the previous one.  Nested
    ranges are exactly what the Partial Loads V2 table of contents can
    serve from the store, so this workload separates the caching policies
    far more sharply than independent random queries do.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    rng = np.random.default_rng(seed)
    queries: list[RangeQuery] = []
    for _ in range(regions):
        width = max(4 * depth, nrows // 3)
        lo_a = int(rng.integers(0, max(1, nrows - width)))
        lo_b = int(rng.integers(0, max(1, nrows - width)))
        hi_a, hi_b = lo_a + width, lo_b + width
        for _ in range(depth):
            sql = (
                f"select sum({col_a}), avg({col_b}) from {table} "
                f"where {col_a} > {lo_a} and {col_a} < {hi_a} "
                f"and {col_b} > {lo_b} and {col_b} < {hi_b}"
            )
            queries.append(
                RangeQuery(sql, (col_a, col_b), ((lo_a, hi_a), (lo_b, hi_b)))
            )
            # Zoom: shrink both ranges toward their centres.
            shrink_a = max(1, (hi_a - lo_a) // 4)
            shrink_b = max(1, (hi_b - lo_b) // 4)
            lo_a, hi_a = lo_a + shrink_a, hi_a - shrink_a
            lo_b, hi_b = lo_b + shrink_b, hi_b - shrink_b
            if hi_a - lo_a < 2 or hi_b - lo_b < 2:
                break
    return queries


def figure4_sequence(
    nrows: int,
    ncols: int = 12,
    selectivity: float = 0.10,
    seed: int = 43,
    table: str = "r",
) -> list[RangeQuery]:
    """The 12-query sequence of Figure 4 on a 12-column table.

    "Every 2 queries we use 2 different attributes of the table until all
    attributes have been used ... the second query in each run is simply a
    rerun of the first ... the very first query asks for the two
    attributes that appear last in the flat file."
    """
    if ncols % 2 != 0:
        raise ValueError("figure 4 needs an even column count")
    rng = np.random.default_rng(seed)
    queries: list[RangeQuery] = []
    # Pairs from the back of the file towards the front.
    for hi in range(ncols, 0, -2):
        col_a, col_b = f"a{hi - 1}", f"a{hi}"
        q = make_q2(nrows, col_a, col_b, selectivity, rng, table)
        queries.append(q)
        queries.append(q)  # exact rerun: best case for caching policies
    return queries
