"""The ledger's own truth: expected answers from the generator's arrays.

``Truth`` never touches ``repro``; it evaluates a ``datagen.Query`` with
NumPy over the arrays the CSV files were written from.  Integer and
string columns must match exactly, float columns to ``rel 1e-9``.
Grouped results are compared as sets of groups (SQL fixes no order);
plain projections in file order.
"""

from __future__ import annotations

import numpy as np

from benchmarks.ledger.datagen import Columns, Query

FLOAT_REL = 1e-9


class Truth:
    """Expected answers over ``t`` (and, for joins, ``d``)."""

    def __init__(
        self, t: Columns, d: Columns | None = None, index: tuple[str, ...] = ()
    ) -> None:
        self.t = dict(t)
        self.d = d
        # column -> (row ids sorted by value, sorted values), for the
        # columns named in ``index``: a selective range on one of them is
        # answered without a full-column mask, so checking thousands of
        # sub-millisecond queries costs less than running them.
        self._index = {}
        for column in index:
            order = np.argsort(self.t[column], kind="stable")
            self._index[column] = (order, self.t[column][order])

    def append(self, batch: Columns) -> None:
        """Rows appended to the file are appended to the truth."""
        if self._index:
            raise ValueError("an indexed Truth cannot grow")
        self.t = {name: np.concatenate([col, batch[name]]) for name, col in self.t.items()}

    def _rows(self, where: tuple[tuple[str, float, float], ...]) -> np.ndarray:
        """Ids of the rows inside every open range, in file order."""
        if not where:
            return np.arange(len(self.t["ts"]))
        column, lo, hi = where[0]
        if column in self._index:
            order, values = self._index[column]
            first = np.searchsorted(values, lo, side="right")
            last = np.searchsorted(values, hi, side="left")
            rows = np.sort(order[first:last])
        else:
            values = self.t[column]
            rows = np.flatnonzero((values > lo) & (values < hi))
        for column, lo, hi in where[1:]:
            picked = self.t[column][rows]
            rows = rows[(picked > lo) & (picked < hi)]
        return rows

    def expected(self, q: Query) -> list[np.ndarray]:
        rows = self._rows(q.where)
        if q.project:
            return [self.t[c][rows] for c in q.project]
        if q.group is None:
            return [np.array([_aggregate(f, c, self.t, rows)]) for f, c in q.aggs]
        keys = self.d[q.group][self.t["u4"][rows]] if q.join else self.t[q.group][rows]
        uniq, inverse = np.unique(keys, return_inverse=True)
        by_group = np.argsort(inverse, kind="stable")
        starts = np.searchsorted(inverse[by_group], np.arange(len(uniq)))
        out = [uniq]
        for func, column in q.aggs:
            if column == "*":
                out.append(np.bincount(inverse, minlength=len(uniq)))
            elif func == "sum":
                out.append(np.add.reduceat(self.t[column][rows][by_group], starts))
            else:
                raise ValueError(f"no grouped truth for {func}({column})")
        return out


def equal(q: Query, columns: list[np.ndarray], want: list[np.ndarray]) -> bool:
    """Whether result ``columns`` are the expected answer ``want`` of ``q``."""
    if len(columns) != len(want) or any(
        len(got) != len(exp) for got, exp in zip(columns, want)
    ):
        return False
    if q.group is not None:
        order = np.argsort(columns[0], kind="stable")
        columns = [np.asarray(c)[order] for c in columns]
    return all(_same(got, exp) for got, exp in zip(columns, want))


_AGGREGATES = {"sum": np.sum, "avg": np.mean, "max": np.max, "min": np.min}


def _aggregate(func: str, column: str, t: Columns, rows: np.ndarray):
    if column == "*":
        return len(rows)
    return _AGGREGATES[func](t[column][rows])


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    got = np.asarray(got)
    if want.dtype.kind == "f":
        return got.dtype.kind in "fiu" and bool(
            np.allclose(got, want, rtol=FLOAT_REL, atol=0.0)
        )
    if want.dtype.kind in "iu":
        return got.dtype.kind in "fiu" and bool(np.array_equal(got, want))
    return bool(np.array_equal(got.astype(str), want))
