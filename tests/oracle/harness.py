"""Differential-testing oracle harness for the format-adapter layer.

The oracle is :class:`repro.baselines.csv_engine.CSVEngine` — the
external policy that re-reads and re-tokenizes the raw file on every
query, keeping nothing.  It is the slowest, most obviously correct way
to answer a query over a flat file, which makes it the reference: for
any dialect rendering of a random table and any workload, every adaptive
policy, worker count and cold/warm repetition must return exactly the
oracle's results.

This module holds the pieces the test files share: random-table
strategies (Hypothesis), dialect renderers, workload generation, result
normalization and the compare loop itself.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from repro import EngineConfig, NoDBEngine
from repro.baselines.csv_engine import CSVEngine
from repro.config import POLICIES
from repro.flatfile.dialects import (
    DelimitedAdapter,
    FixedWidthAdapter,
    JsonLinesAdapter,
    QuotedCsvAdapter,
    TsvAdapter,
)
from repro.flatfile.writer import format_value, write_csv

#: Every dialect the adapter layer supports, oracle-tested in full.
DIALECTS = ("csv", "quoted-csv", "tsv", "jsonl", "fixed-width")

__all__ = [
    "DIALECTS",
    "POLICIES",
    "compare_engine_to_oracle",
    "make_workload",
    "normalize",
    "oracle_results",
    "render_table",
    "run_workload_concurrently",
    "tables",
]


# ---------------------------------------------------------------------------
# random tables
# ---------------------------------------------------------------------------

# No digits and none of n/a/i/f/e (nan / inf / 1e5 lookalikes), so string
# columns always classify as strings; representable in every dialect.
_SAFE_LETTERS = "bcdghjklmpqrstuvwxyzßéあ素"


def _string_values():
    return st.text(alphabet=_SAFE_LETTERS, max_size=6).map(lambda s: "v" + s)


def _payload_column():
    return st.one_of(
        st.lists(st.integers(-10**6, 10**6), min_size=1),
        st.lists(st.integers(-8000, 8000).map(lambda n: n / 8), min_size=1),
        st.lists(_string_values(), min_size=1),
    )


def tables():
    """Random tables: first column always int (predicates target it)."""

    def build(draw_tuple):
        key_vals, payload_cols, nrows = draw_tuple
        cols = [[key_vals[i % len(key_vals)] for i in range(nrows)]]
        for col in payload_cols:
            cols.append([col[i % len(col)] for i in range(nrows)])
        return cols

    return st.tuples(
        st.lists(st.integers(-1000, 1000), min_size=1),
        st.lists(_payload_column(), min_size=0, max_size=2),
        st.integers(1, 12),
    ).map(build)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_table(directory: Path, columns, dialect: str):
    """Write ``columns`` in ``dialect``; return (path, attach kwargs)."""
    if dialect == "fixed-width":
        texts = [[format_value(v) for v in col] for col in columns]
        widths = tuple(max(max(len(t) for t in col), 1) for col in texts)
        adapter = FixedWidthAdapter(widths)
        kwargs: dict = {"format": "fixed-width", "fixed_widths": widths}
    elif dialect == "jsonl":
        adapter = JsonLinesAdapter()
        kwargs = {"format": "jsonl"}
    elif dialect == "quoted-csv":
        adapter = QuotedCsvAdapter(",")
        kwargs = {"format": "quoted-csv"}
    elif dialect == "tsv":
        adapter = TsvAdapter()
        kwargs = {"format": "tsv"}
    elif dialect == "csv":
        adapter = DelimitedAdapter(",")
        kwargs = {}
    else:
        raise ValueError(f"unknown dialect {dialect!r}")
    path = directory / f"table-{dialect.replace('-', '')}.dat"
    write_csv(path, columns, adapter=adapter)
    return path, kwargs


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def make_workload(columns, bounds: tuple[int, int]) -> list[str]:
    """A deterministic workload exercising the loading machinery.

    Mixes projections (touch string columns too), filtered aggregates
    (pushdown + early abort), count(*) (row framing), and a repeat of
    the first query (warm positional-map path).  A string column is also
    grouped and compared with one of its own values, so dictionary codes
    meet every dialect, append, fault and concurrent schedule.
    """
    names = [f"a{i + 1}" for i in range(len(columns))]
    numeric = [
        n
        for n, col in zip(names, columns)
        if isinstance(col[0], (int, float))
    ]
    strings = [
        (n, col) for n, col in zip(names, columns) if isinstance(col[0], str)
    ]
    lo, hi = sorted(bounds)
    queries = [f"select {', '.join(names)} from t"]
    queries.append(f"select count(*) from t where a1 > {lo}")
    if numeric:
        aggs = ", ".join(f"sum({n}), min({n}), max({n})" for n in numeric[:2])
        queries.append(f"select {aggs} from t where a1 > {lo} and a1 < {hi}")
    if strings:
        name, col = strings[0]
        queries.append(f"select {name}, count(*) from t group by {name}")
        queries.append(f"select count(*) from t where {name} = '{col[len(col) // 2]}'")
    queries.append(f"select {names[-1]} from t where a1 < {hi}")
    queries.append(queries[0])  # warm repeat inside the same engine
    return queries


# ---------------------------------------------------------------------------
# result normalization + comparison
# ---------------------------------------------------------------------------


def normalize(result) -> list[tuple]:
    """Result rows as plain Python scalars (NaN made comparable)."""
    out = []
    for row in result.rows():
        cells = []
        for cell in row:
            if isinstance(cell, (np.floating, float)):
                value = float(cell)
                cells.append("NaN" if math.isnan(value) else value)
            elif isinstance(cell, (np.integer, int)):
                cells.append(int(cell))
            else:
                cells.append(str(cell))
        out.append(tuple(cells))
    return out


def oracle_results(path, kwargs, queries) -> list[list[tuple]]:
    """The CSV-engine oracle's answer to every query, in order."""
    oracle = CSVEngine()
    try:
        oracle.attach("t", path, **kwargs)
        return [normalize(oracle.query(q)) for q in queries]
    finally:
        oracle.close()


def run_workload_concurrently(
    engine, queries, nthreads: int
) -> list[list[list[tuple]]]:
    """Replay ``queries`` from ``nthreads`` threads against one engine.

    Every thread runs the *whole* workload in order, all released
    together by a barrier to maximize interleavings (shared cold scans,
    racing warm reads, result-cache races).  Returns the normalized
    per-thread answer lists; any thread exception is re-raised.
    """
    barrier = threading.Barrier(nthreads)

    def replay(_: int) -> list[list[tuple]]:
        barrier.wait()
        return [normalize(engine.query(q)) for q in queries]

    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        return list(pool.map(replay, range(nthreads)))


def compare_engine_to_oracle(
    path,
    kwargs,
    queries,
    expected: list[list[tuple]],
    policy: str,
    label: str,
    **config_kwargs,
) -> NoDBEngine:
    """Run the workload cold on a fresh engine and diff every answer.

    Returns the (closed) engine so callers can inspect its stats.
    """
    engine = NoDBEngine(EngineConfig(policy=policy, **config_kwargs))
    try:
        engine.attach("t", path, **kwargs)
        for i, (query, want) in enumerate(zip(queries, expected)):
            got = normalize(engine.query(query))
            assert got == want, (
                f"[{label}] policy={policy} query#{i} {query!r}: "
                f"engine {got!r} != oracle {want!r}"
            )
    finally:
        engine.close()
    return engine
