"""Half-open integer interval sets — the row-id "table of contents".

Section 3.1.2 of the paper notes that partial loading needs "a table of
contents so that we know what portions of a column are loaded".  The
row-id half of that table of contents is this class: a set of non-negative
integers stored as sorted, coalesced, non-overlapping ``[start, end)``
intervals.

The implementation favours clarity over asymptotic heroics: interval lists
here hold at most a handful of entries per column (loads happen in large
chunks), so linear merges are plenty and are easy to verify by property
tests (invariant: sorted, coalesced, disjoint, non-empty intervals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np


@dataclass
class IntervalSet:
    """A set of ints represented as sorted disjoint half-open intervals."""

    intervals: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.intervals:
            self.intervals = _normalize(self.intervals)

    # ---------------------------------------------------------- construction

    @classmethod
    def from_range(cls, start: int, end: int) -> "IntervalSet":
        if end <= start:
            return cls([])
        return cls([(start, end)])

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "IntervalSet":
        """Build from arbitrary (possibly unsorted) row ids."""
        arr = np.unique(np.fromiter(indices, dtype=np.int64))
        if arr.size == 0:
            return cls([])
        breaks = np.nonzero(np.diff(arr) > 1)[0]
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [arr.size - 1]))
        return cls([(int(arr[s]), int(arr[e]) + 1) for s, e in zip(starts, ends)])

    # ----------------------------------------------------------- predicates

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __len__(self) -> int:
        """Number of integers (not intervals) in the set."""
        return sum(e - s for s, e in self.intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __contains__(self, idx: int) -> bool:
        return self._find(idx) is not None

    def _find(self, idx: int) -> int | None:
        """Index of the interval containing ``idx``, if any (binary search)."""
        lo, hi = 0, len(self.intervals)
        while lo < hi:
            mid = (lo + hi) // 2
            s, e = self.intervals[mid]
            if idx < s:
                hi = mid
            elif idx >= e:
                lo = mid + 1
            else:
                return mid
        return None

    def covers(self, start: int, end: int) -> bool:
        """True when every integer in ``[start, end)`` is in the set."""
        if end <= start:
            return True
        i = self._find(start)
        return i is not None and self.intervals[i][1] >= end

    def covers_set(self, other: "IntervalSet") -> bool:
        return all(self.covers(s, e) for s, e in other.intervals)

    # ----------------------------------------------------------- operations

    def add(self, start: int, end: int) -> None:
        """In-place union with ``[start, end)``."""
        if end <= start:
            return
        self.intervals = _normalize(self.intervals + [(start, end)])

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(_normalize(self.intervals + other.intervals))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        result: list[tuple[int, int]] = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            s = max(a[i][0], b[j][0])
            e = min(a[i][1], b[j][1])
            if s < e:
                result.append((s, e))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(result)

    # ------------------------------------------------------------ iteration

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.intervals)

    def indices(self) -> np.ndarray:
        """Materialize all member integers as an int64 array."""
        if not self.intervals:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.arange(s, e, dtype=np.int64) for s, e in self.intervals])

    def mask(self, n: int) -> np.ndarray:
        """Boolean membership mask over ``range(n)``."""
        out = np.zeros(n, dtype=bool)
        for s, e in self.intervals:
            out[max(0, s) : min(n, e)] = True
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"[{s},{e})" for s, e in self.intervals)
        return f"IntervalSet({body})"


def _normalize(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort, drop empties, coalesce overlapping/adjacent intervals."""
    items = sorted((s, e) for s, e in intervals if e > s)
    out: list[tuple[int, int]] = []
    for s, e in items:
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out
