"""Seeded inputs of the ledger: tables, append batches and query streams.

NumPy only.  Nothing here imports ``repro``: the program under test
receives the generated files and SQL strings, never the generator, and
``check.py`` computes every expected answer from the arrays built here.

Base table ``T`` (header ``ts,u1,u2,u3,u4,f1,f2,cat``): ``ts`` is
clustered (a cumulative sum of small steps, so zone maps can skip on
it), ``u1..u3`` are uniform over ``[0, U_SPAN)`` (zones cannot skip),
``u4`` is uniform over the keys of ``D``, ``f1``/``f2`` are positive
floats with three decimals and ``cat`` is one of 16 strings.  Dimension
table ``D`` (header ``k,g,w``) has one row per key ``0..D_ROWS-1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

T_ROWS = 400_000
#: ``explore_cold`` re-reads its table from scratch every iteration, so
#: it gets a shorter table: nine cold explorations must fit in one run.
COLD_ROWS = 100_000
D_ROWS = 1_000
D_GROUPS = 20
APPEND_ROWS = 1_000
U_SPAN = 1_000_000
T_COLUMNS = ("ts", "u1", "u2", "u3", "u4", "f1", "f2", "cat")
CATEGORIES = np.array([f"cat{i:02d}" for i in range(16)])

Columns = dict[str, np.ndarray]


def make_t(rng: np.random.Generator, nrows: int, ts_start: int = 0) -> Columns:
    """``nrows`` rows of ``T``; ``ts`` continues upward from ``ts_start``."""
    return {
        "ts": ts_start + np.cumsum(rng.integers(1, 20, nrows)),
        "u1": rng.integers(0, U_SPAN, nrows),
        "u2": rng.integers(0, U_SPAN, nrows),
        "u3": rng.integers(0, U_SPAN, nrows),
        "u4": rng.integers(0, D_ROWS, nrows),
        "f1": np.round(rng.random(nrows) * 1000.0, 3),
        # Positive, so float sums never cancel and a relative tolerance
        # on them means something.
        "f2": np.round(rng.gamma(2.0, 50.0, nrows), 3),
        "cat": CATEGORIES[rng.integers(0, len(CATEGORIES), nrows)],
    }


def make_d(rng: np.random.Generator) -> Columns:
    return {
        "k": np.arange(D_ROWS),
        "g": rng.integers(0, D_GROUPS, D_ROWS),
        "w": rng.integers(1, 100, D_ROWS),
    }


def _csv_body(columns: Columns) -> str:
    # ``repr`` of a float64 is its shortest round-trip text, so the
    # engine parses back exactly the value the truth arrays hold.
    texts = [
        list(map(repr if col.dtype.kind == "f" else str, col.tolist()))
        for col in columns.values()
    ]
    return "\n".join(map(",".join, zip(*texts))) + "\n"


def write_csv(path: Path, columns: Columns) -> None:
    with open(path, "w", encoding="ascii") as out:
        out.write(",".join(columns) + "\n")
        out.write(_csv_body(columns))


def append_csv(path: Path, columns: Columns) -> None:
    with open(path, "a", encoding="ascii") as out:
        out.write(_csv_body(columns))


# ------------------------------------------------------------------ queries


@dataclass(frozen=True)
class Query:
    """One SELECT, held as the fields both the SQL text and the expected
    answer are derived from.

    ``where`` is a conjunction of open ranges ``lo < column < hi``.
    ``aggs`` are ``(function, column)`` pairs (``("count", "*")``);
    a query has either ``aggs`` or a plain ``project`` list.  ``group``
    names the group-by column; with ``join`` the query runs over
    ``t1 join t2 on t1.u4 = t2.k`` and ``group`` is a column of ``D``.
    """

    table: str
    where: tuple[tuple[str, float, float], ...] = ()
    aggs: tuple[tuple[str, str], ...] = ()
    project: tuple[str, ...] = ()
    group: str | None = None
    join: bool = False

    @property
    def sql(self) -> str:
        t = f"{self.table}." if self.join else ""
        items = [f"{t}{c}" for c in self.project]
        if self.group is not None:
            items.append(f"t2.{self.group}" if self.join else self.group)
        items += [
            "count(*)" if col == "*" else f"{func}({t}{col})"
            for func, col in self.aggs
        ]
        sql = f"select {', '.join(items)} from {self.table}"
        if self.join:
            sql += f" join t2 on {t}u4 = t2.k"
        if self.where:
            sql += " where " + " and ".join(
                f"{t}{col} > {lo!r} and {t}{col} < {hi!r}"
                for col, lo, hi in self.where
            )
        if self.group is not None:
            sql += f" group by {'t2.' if self.join else ''}{self.group}"
        return sql


def _span(t: Columns, column: str) -> tuple[int, int]:
    """The value range queries on ``column`` draw their constants from."""
    if column == "ts":
        return int(t["ts"][0]), int(t["ts"][-1])
    return 0, U_SPAN


def _int_range(
    rng: np.random.Generator, t: Columns, column: str, share: float
) -> tuple[str, int, int]:
    """An open range covering about ``share`` of ``column``'s span."""
    lo_end, hi_end = _span(t, column)
    width = max(2, int((hi_end - lo_end) * share))
    lo = int(rng.integers(lo_end, hi_end - width))
    return column, lo, lo + width


def explore_queries(rng: np.random.Generator, t: Columns) -> list[Query]:
    """One analyst's 8-query session: the column focus keeps shifting."""
    f2_a, f2_b = np.round(rng.uniform(20.0, 200.0, 2), 3).tolist()
    count = ("count", "*")
    return [
        Query("t1", (_int_range(rng, t, "ts", 0.2),), (count, ("sum", "u1"))),
        Query("t1", (_int_range(rng, t, "ts", 0.2),), (count, ("sum", "u1"))),
        Query(
            "t1",
            (_int_range(rng, t, "u3", 0.5),),
            (count, ("avg", "f1"), ("max", "u2")),
        ),
        Query("t1", (("f2", f2_a, f2_a + 2.0),), (count, ("sum", "f2"))),
        Query("t1", (("f2", f2_b, f2_b + 2.0),), (count, ("sum", "f2"))),
        Query("t1", (_int_range(rng, t, "ts", 0.002),), project=("ts", "u1", "cat")),
        Query("t1", aggs=(count, ("sum", "u1")), group="cat"),
        Query(
            "t1",
            (_int_range(rng, t, "ts", 0.5),),
            (count, ("sum", "u1")),
            group="g",
            join=True,
        ),
    ]


def load_query(columns: tuple[str, ...]) -> Query:
    """A whole-table aggregate over ``columns``: set-up runs it to bring
    those columns in."""
    return Query("t", aggs=(("count", "*"),) + tuple(("sum", c) for c in columns))


RESIDENT_COLUMNS = ("ts", "u1", "u2", "u3")
BURST = 100


def resident_queries(rng: np.random.Generator, t: Columns) -> Iterator[list[Query]]:
    """Dwell bursts of ``BURST`` range aggregates; each burst stays on one
    filter column (so cracking pays off inside it), then moves on."""
    burst = 0
    while True:
        column = RESIDENT_COLUMNS[burst % 4]
        summed = RESIDENT_COLUMNS[(burst + 1) % 4]
        yield [
            Query(
                "t",
                (_int_range(rng, t, column, rng.uniform(0.001, 0.05)),),
                (("count", "*"), ("sum", summed)),
            )
            for _ in range(BURST)
        ]
        burst += 1


SELECTIVE_GROUP = 12


def selective_queries(rng: np.random.Generator, t: Columns) -> Iterator[Query]:
    """1 %-range aggregates: 11 on clustered ``ts`` for every one on
    uniform ``u1``, the odd one at a seeded place in its group."""
    while True:
        odd = int(rng.integers(0, SELECTIVE_GROUP))
        for i in range(SELECTIVE_GROUP):
            column = "u1" if i == odd else "ts"
            yield Query(
                "t", (_int_range(rng, t, column, 0.01),), (("count", "*"), ("sum", "u2"))
            )


def restart_queries(rng: np.random.Generator, t: Columns) -> list[Query]:
    """The three queries of one restart cycle.  The first covers the tail
    of ``ts`` and the second a slice of uniform ``u2``, so both answers
    change when rows are appended: a stale answer cannot pass."""
    ts_lo, ts_hi = _span(t, "ts")
    tail = ts_hi - int((ts_hi - ts_lo) * 0.01)
    return [
        Query("t", (("ts", tail, 10**15),), (("count", "*"), ("sum", "u1"))),
        Query("t", (_int_range(rng, t, "u2", 0.03),), (("count", "*"), ("max", "ts"))),
        Query("t", (_int_range(rng, t, "ts", 0.002),), (("count", "*"),), group="u4"),
    ]


HTTP_POOL = 64
#: One block of a client's op stream: 3 ``page`` ops (15 %), 6 ``agg`` ops
#: that reuse a pooled constant and so can hit the result cache, and 11
#: ``agg`` ops with fresh constants.  The shares are exact in every block
#: (only the order is drawn), because a ``page`` op costs ~40 ``agg`` ops:
#: a drawn share would move ``ops_per_s`` by a tenth from seed to seed.
#: The repeat share (6 of 17) is kept away from one half on purpose: at
#: one half the median latency would sit between the hit and the miss
#: mode and jump from run to run.
HTTP_BLOCK = ("page",) * 3 + ("repeat",) * 6 + ("fresh",) * 11
PAGE_ROW_SHARE = 0.05
PAGES_PER_OP = 20


def _http_agg(rng: np.random.Generator, t: Columns) -> Query:
    return Query("t", (_int_range(rng, t, "u1", 0.02),), (("count", "*"), ("sum", "u2")))


def http_pool(rng: np.random.Generator, t: Columns) -> list[Query]:
    return [_http_agg(rng, t) for _ in range(HTTP_POOL)]


def http_ops(
    rng: np.random.Generator, t: Columns, pool: list[Query]
) -> Iterator[tuple[str, Query]]:
    """One client's op stream: ``("agg", q)`` or ``("page", q)``."""
    while True:
        for kind in rng.permutation(HTTP_BLOCK):
            if kind == "page":
                yield "page", Query(
                    "t",
                    (_int_range(rng, t, "ts", PAGE_ROW_SHARE),),
                    project=("ts", "u1", "u2", "u3"),
                )
            elif kind == "repeat":
                yield "agg", pool[int(rng.integers(0, len(pool)))]
            else:
                yield "agg", _http_agg(rng, t)
