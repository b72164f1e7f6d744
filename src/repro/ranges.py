"""Value intervals and conjunctive conditions.

The paper's workloads are conjunctions of range predicates
(``a1 > v1 AND a1 < v2 AND ...``).  Three subsystems need to reason about
such predicates symbolically rather than just evaluate them:

* the **partial-loading table of contents** asks "is the range this query
  wants a subset of a range I already loaded?" (section 3.1.2);
* the **cracker index** partitions columns at predicate endpoints;
* the **adaptive load operators** push predicates into tokenization.

:class:`ValueInterval` is the shared vocabulary: a possibly-unbounded,
possibly-open interval over a column's values, with vectorized mask
evaluation and subset tests.  :class:`Condition` is a normalized
conjunction of per-column intervals with an implication test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

if TYPE_CHECKING:
    from repro.strings import StringColumn


@dataclass(frozen=True)
class ValueInterval:
    """An interval of column values; ``None`` bounds mean unbounded.

    ``lo_open``/``hi_open`` select strict (<, >) versus inclusive
    (<=, >=) endpoints.  An equality predicate ``a = v`` is the closed
    degenerate interval ``[v, v]``.
    """

    lo: float | int | str | None = None
    hi: float | int | str | None = None
    lo_open: bool = True
    hi_open: bool = True

    @classmethod
    def unbounded(cls) -> "ValueInterval":
        return cls(None, None)

    @classmethod
    def equal(cls, value) -> "ValueInterval":
        return cls(value, value, lo_open=False, hi_open=False)

    # ----------------------------------------------------------- predicates

    def is_unbounded(self) -> bool:
        return self.lo is None and self.hi is None

    def is_empty(self) -> bool:
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def contains_value(self, v) -> bool:
        if self.lo is not None:
            if self.lo_open:
                if not v > self.lo:
                    return False
            elif not v >= self.lo:
                return False
        if self.hi is not None:
            if self.hi_open:
                if not v < self.hi:
                    return False
            elif not v <= self.hi:
                return False
        return True

    def contains_interval(self, other: "ValueInterval") -> bool:
        """True when every value in ``other`` lies in ``self``."""
        if other.is_empty():
            return True
        if self.lo is not None:
            if other.lo is None:
                return False
            if other.lo < self.lo:
                return False
            if other.lo == self.lo and self.lo_open and not other.lo_open:
                return False
        if self.hi is not None:
            if other.hi is None:
                return False
            if other.hi > self.hi:
                return False
            if other.hi == self.hi and self.hi_open and not other.hi_open:
                return False
        return True

    def intersect(self, other: "ValueInterval") -> "ValueInterval":
        """Narrowest interval contained in both (used to merge conjuncts)."""
        lo, lo_open = self.lo, self.lo_open
        if other.lo is not None and (lo is None or other.lo > lo):
            lo, lo_open = other.lo, other.lo_open
        elif other.lo is not None and other.lo == lo:
            lo_open = lo_open or other.lo_open
        hi, hi_open = self.hi, self.hi_open
        if other.hi is not None and (hi is None or other.hi < hi):
            hi, hi_open = other.hi, other.hi_open
        elif other.hi is not None and other.hi == hi:
            hi_open = hi_open or other.hi_open
        return ValueInterval(lo, hi, lo_open, hi_open)

    # ----------------------------------------------------------- evaluation

    def mask(self, values: "np.ndarray | StringColumn") -> np.ndarray:
        """Vectorized membership over a NumPy array or a string column
        (whose comparisons run once per dictionary entry)."""
        out = np.ones(len(values), dtype=bool)
        if self.lo is not None:
            out &= (values > self.lo) if self.lo_open else (values >= self.lo)
        if self.hi is not None:
            out &= (values < self.hi) if self.hi_open else (values <= self.hi)
        return out

    def __str__(self) -> str:  # pragma: no cover - debug aid
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        lo = "-inf" if self.lo is None else repr(self.lo)
        hi = "+inf" if self.hi is None else repr(self.hi)
        return f"{left}{lo}, {hi}{right}"


class Condition:
    """A normalized conjunction of per-column :class:`ValueInterval`\\ s.

    Immutable; columns are stored lower-cased and sorted so two equal
    conditions compare equal.  The empty condition is "always true".
    """

    __slots__ = ("_items",)

    def __init__(self, items: Mapping[str, ValueInterval] | Iterable[tuple[str, ValueInterval]] = ()):
        merged: dict[str, ValueInterval] = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for col, interval in pairs:
            key = col.lower()
            if key in merged:
                merged[key] = merged[key].intersect(interval)
            else:
                merged[key] = interval
        self._items: tuple[tuple[str, ValueInterval], ...] = tuple(
            sorted(merged.items())
        )

    @property
    def items(self) -> tuple[tuple[str, ValueInterval], ...]:
        return self._items

    def columns(self) -> list[str]:
        return [c for c, _ in self._items]

    def interval_for(self, col: str) -> ValueInterval:
        key = col.lower()
        for c, interval in self._items:
            if c == key:
                return interval
        return ValueInterval.unbounded()

    def is_trivial(self) -> bool:
        return not self._items

    def implies(self, other: "Condition") -> bool:
        """True when every row satisfying ``self`` satisfies ``other``.

        Sound but intentionally incomplete: it checks per-column interval
        containment, which is exactly the reasoning the table of contents
        needs for conjunctive range workloads.
        """
        return all(
            other_interval.contains_interval(self.interval_for(col))
            for col, other_interval in other._items
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Condition):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self._items:
            return "Condition(TRUE)"
        body = " AND ".join(f"{c} in {i}" for c, i in self._items)
        return f"Condition({body})"
