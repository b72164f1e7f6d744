"""Query results.

A :class:`QueryResult` is a small columnar result set: named NumPy arrays
plus conveniences for tests and interactive use (row tuples, dict export,
pretty printing).  All engines and baselines in this repository return this
type, which is what lets the property tests assert that every loading
policy produces byte-identical answers.

The same type is the unit of the wire protocol: :meth:`to_json_dict` /
:meth:`from_json_dict` give an exact JSON-safe round-trip (non-finite
floats are encoded as the strings ``"NaN"`` / ``"Infinity"`` /
``"-Infinity"`` so payloads stay strict-JSON), and the paging API
(:meth:`page`, :meth:`pages`, :meth:`num_pages`) slices a result into
bounded row windows — the CLI, the HTTP server and the client all
serialize and page results through these methods, identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np


def _encode_column(arr: np.ndarray) -> list:
    """One column as a list of strict-JSON-safe Python scalars."""
    kind = arr.dtype.kind
    if kind == "f":
        arr = arr.astype(np.float64, copy=False)
        if np.isfinite(arr).all():
            return arr.tolist()
        cells = arr.astype(object)  # non-finite cells travel as strings
        cells[np.isnan(arr)] = "NaN"
        cells[arr == np.inf] = "Infinity"
        cells[arr == -np.inf] = "-Infinity"
        return cells.tolist()
    values = arr.tolist()
    if kind in "iubU" or set(map(type, values)) <= {str}:
        return values
    return [_encode_object_cell(v) for v in values]


def _encode_object_cell(v) -> object:
    """A cell of an object column that holds more than ``str`` (rare):
    numbers keep their JSON type, as in a numeric column; the rest is text."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return _encode_column(np.array([v], dtype=np.float64))[0]
    return str(v)


def _decode_column(values: list, dtype: str) -> np.ndarray:
    if dtype == "int64":
        return np.array(values, dtype=np.int64)
    if dtype == "float64":
        # NumPy parses "NaN" / "Infinity" / "-Infinity" cells itself.
        return np.array(values, dtype=np.float64)
    return np.array(list(map(str, values)), dtype=object)


def _dtype_token(arr: np.ndarray) -> str:
    if arr.dtype.kind in "iub":
        return "int64"
    if arr.dtype.kind == "f":
        return "float64"
    return "str"


@dataclass
class QueryResult:
    """Columnar result set."""

    names: list[str]
    columns: list[np.ndarray]
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.names) != len(self.columns):
            raise ValueError(
                f"{len(self.names)} names but {len(self.columns)} columns"
            )
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged result: column lengths {sorted(lengths)}")

    # ------------------------------------------------------------- access

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[self.names.index(name)]
        except ValueError:
            raise KeyError(f"no result column {name!r}; have {self.names}") from None

    def rows(self) -> list[tuple]:
        """Row tuples of Python scalars (one ``tolist`` per column)."""
        return list(zip(*(col.tolist() for col in self.columns)))

    def scalar(self):
        """The single value of a 1x1 result (aggregate convenience)."""
        if self.num_rows != 1 or self.num_columns != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, have {self.num_rows}x{self.num_columns}"
            )
        return self.columns[0][0]

    def to_dict(self) -> dict[str, list]:
        return {n: list(c) for n, c in zip(self.names, self.columns)}

    # ------------------------------------------------------------- paging

    def slice_rows(self, start: int, stop: int) -> "QueryResult":
        """A new result holding rows ``[start, stop)`` (stats not copied)."""
        return QueryResult(list(self.names), [c[start:stop] for c in self.columns])

    def num_pages(self, size: int) -> int:
        """How many ``size``-row pages this result splits into (>= 1)."""
        if size <= 0:
            raise ValueError(f"page size must be positive, got {size}")
        return max(1, -(-self.num_rows // size))

    def page(self, n: int, size: int) -> "QueryResult":
        """Page ``n`` (0-based) of ``size`` rows.

        Raises :class:`IndexError` past the last page; page 0 of an empty
        result is the empty result itself (a result always has one page).
        """
        npages = self.num_pages(size)
        if not 0 <= n < npages:
            raise IndexError(f"page {n} out of range (result has {npages} pages)")
        return self.slice_rows(n * size, min((n + 1) * size, self.num_rows))

    def pages(self, size: int) -> Iterator["QueryResult"]:
        """Iterate the result as bounded ``size``-row pages, in order."""
        for n in range(self.num_pages(size)):
            yield self.page(n, size)

    # ------------------------------------------------------- serialization

    def to_json_dict(self) -> dict:
        """Strict-JSON-safe wire form (exact round-trip via
        :meth:`from_json_dict`); the CLI ``--json`` mode, the HTTP server
        and the client all use exactly this encoding."""
        return {
            "names": list(self.names),
            "dtypes": [_dtype_token(c) for c in self.columns],
            "columns": [_encode_column(c) for c in self.columns],
            "num_rows": self.num_rows,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "QueryResult":
        """Rebuild a result from its :meth:`to_json_dict` form."""
        names = list(payload["names"])
        dtypes = list(payload["dtypes"])
        columns = [
            _decode_column(col, dtype)
            for col, dtype in zip(payload["columns"], dtypes)
        ]
        return cls(names, columns)

    # ---------------------------------------------------------- comparison

    def approx_equal(self, other: "QueryResult", rel: float = 1e-9) -> bool:
        """Value equality with float tolerance, ignoring stats."""
        if self.names != other.names or self.num_rows != other.num_rows:
            return False
        for a, b in zip(self.columns, other.columns):
            if a.dtype.kind == "f" or b.dtype.kind == "f":
                # NaN is this engine's "aggregate over empty input" marker
                # (no NULL system), so NaN == NaN here.
                if not np.allclose(
                    a.astype(np.float64),
                    b.astype(np.float64),
                    rtol=rel,
                    atol=1e-12,
                    equal_nan=True,
                ):
                    return False
            elif not all(x == y for x, y in zip(a, b)):
                return False
        return True

    # ------------------------------------------------------------ display

    def __repr__(self) -> str:
        lines = [" | ".join(self.names)]
        for i, row in enumerate(self.rows()):
            if i >= 20:
                lines.append(f"... ({self.num_rows} rows)")
                break
            lines.append(" | ".join(_fmt(v) for v in row))
        return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{v:.6g}"
    return str(v)
