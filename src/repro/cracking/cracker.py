"""Cracker columns: incremental, query-driven physical reorganization.

A :class:`CrackerColumn` keeps a *copy* of a base column together with the
permutation that maps cracked positions back to original row ids.  Every
range predicate "cracks" the copy: the pieces containing the range bounds
are partitioned in-place around those bounds and the cut points are
remembered in the cracker index.  Subsequent queries binary-search the
index and only touch (at most) the two edge pieces — an incremental
quicksort paid for by the queries that benefit from it.

Cut points come in two flavours to support open and closed bounds:

* ``(value, LT)``: everything left of the cut is ``< value``;
* ``(value, LE)``: everything left of the cut is ``<= value``.

Sorted by ``(value, flavour)`` (LT before LE), cut positions are monotone,
and each crack only permutes rows *within* one piece, so previously
recorded cuts remain valid forever — the classic cracking invariant.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError
from repro.ranges import ValueInterval

_LT = 0  # left side strictly less than the pivot
_LE = 1  # left side less than or equal to the pivot


@dataclass
class CrackStats:
    """How much physical reorganization the queries have caused."""

    cracks: int = 0
    rows_moved: int = 0
    pieces: int = 1


@dataclass
class CrackerColumn:
    """One cracked column plus its cracker index."""

    values: np.ndarray
    #: ``None`` only before ``__post_init__`` narrows it to the identity
    #: permutation; every method thereafter sees a real array.
    rowids: np.ndarray | None = None
    cuts: list[tuple[tuple, int]] = field(default_factory=list)
    stats: CrackStats = field(default_factory=CrackStats)

    def __post_init__(self) -> None:
        self.values = np.array(self.values, copy=True)
        if self.values.dtype.kind not in "ifu":
            raise ExecutionError("cracking supports numeric columns only")
        if self.rowids is None:
            self.rowids = np.arange(len(self.values), dtype=np.int64)
        else:
            self.rowids = np.array(self.rowids, copy=True)
        if len(self.rowids) != len(self.values):
            raise ExecutionError("rowids and values must have equal length")

    def __len__(self) -> int:
        return len(self.values)

    def crack(self, value, inclusive: bool) -> int:
        """Partition around ``value``; returns the cut position.

        ``inclusive=False`` produces an LT cut (left side ``< value``),
        ``inclusive=True`` an LE cut (left side ``<= value``).  Idempotent:
        re-cracking an existing cut touches nothing.  One bisect over the
        cut list finds both an existing cut and the piece a new one falls
        into, and the new cut is inserted at that same index.
        """
        if isinstance(value, (float, np.floating)) and math.isnan(value):
            # NaN compares False against everything: the "cut" would be a
            # degenerate all-right partition whose meaning depends on
            # comparison direction.  Refuse cleanly instead.
            raise ExecutionError("cannot crack on a NaN pivot")
        key = (value, _LE if inclusive else _LT)
        cuts = self.cuts
        # ``(key,)`` sorts before every ``(key, pos)`` and after every
        # smaller key, so ``i`` is the first cut whose key is >= ``key``.
        i = bisect.bisect_left(cuts, (key,))
        right = cuts[i] if i < len(cuts) else None
        if right is not None and right[0] == key:
            return right[1]
        start = cuts[i - 1][1] if i else 0
        end = len(self.values) if right is None else right[1]
        piece = self.values[start:end]
        mask = (piece <= value) if inclusive else (piece < value)
        left = np.nonzero(mask)[0]
        pos = start + len(left)
        if 0 < len(left) < len(piece):
            order = np.concatenate((left, np.nonzero(~mask)[0]))
            self.values[start:end] = piece[order]
            self.rowids[start:end] = self.rowids[start:end][order]
            self.stats.rows_moved += len(piece)
        self.stats.cracks += 1
        cuts.insert(i, (key, pos))
        self.stats.pieces = len(cuts) + 1
        return pos

    # ------------------------------------------------------------- selects

    def select_interval(self, interval: ValueInterval) -> tuple[int, int]:
        """Crack as needed; return the ``[start, end)`` qualifying slice."""
        start = 0
        if interval.lo is not None:
            # strict lo (> lo): left side must hold values <= lo  -> LE cut
            start = self.crack(interval.lo, inclusive=interval.lo_open)
        end = len(self.values)
        if interval.hi is not None:
            # strict hi (< hi): qualifying values are < hi          -> LT cut
            end = self.crack(interval.hi, inclusive=not interval.hi_open)
        return start, max(start, end)

    def select_rowids(self, interval: ValueInterval) -> np.ndarray:
        s, e = self.select_interval(interval)
        return self.rowids[s:e]

    def select_values(self, interval: ValueInterval) -> np.ndarray:
        s, e = self.select_interval(interval)
        return self.values[s:e]

    # ---------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Verify the cracking invariant (used by property tests)."""
        prev_pos = 0
        prev_key = None
        for key, pos in self.cuts:
            if prev_key is not None and not (prev_key <= key):
                raise AssertionError("cracker index keys out of order")
            if pos < prev_pos:
                raise AssertionError("cracker cut positions out of order")
            value, flavour = key
            left, right = self.values[:pos], self.values[pos:]
            if flavour == _LT:
                if left.size and left.max() >= value:
                    raise AssertionError(f"LT cut at {value} violated on the left")
                if right.size and right.min() < value:
                    raise AssertionError(f"LT cut at {value} violated on the right")
            else:
                if left.size and left.max() > value:
                    raise AssertionError(f"LE cut at {value} violated on the left")
                if right.size and right.min() <= value:
                    raise AssertionError(f"LE cut at {value} violated on the right")
            prev_pos, prev_key = pos, key
