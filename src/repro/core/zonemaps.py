"""Zone maps: per-row-range min/max/null-count statistics for skipping.

A :class:`ZoneMapIndex` partitions a table's row space into fixed-size
zones (``zone_rows`` rows each) and records, per numeric column, each
zone's minimum, maximum and NaN count.  The statistics are learned as a
side effect of passes that already parse a full column — the paper's
"indexes as a by-product of queries" applied to skipping — and consulted
by the selective-read path: a zone whose ``[min, max]`` cannot intersect
a range predicate is skipped without issuing a single window read.

NaN soundness
-------------

Per-zone min/max are computed with ``np.fmin``/``np.fmax`` reductions,
which ignore NaNs: a zone mixing NaNs and finite values keeps its finite
min/max (so it is never skipped while a finite value could match), and
an all-NaN zone gets NaN statistics.  The skip test compares with the
same ``>``/``>=``/``<``/``<=`` operators :meth:`ValueInterval.mask`
uses, and NaN comparisons are always False — so an all-NaN zone is
skipped exactly when the interval has at least one bound, which is
precisely when the mask would reject every NaN row anyway.

Exactness
---------

Zone min/max are stored in the column's *native* dtype (never rounded
through float64 for int columns).  Because the skip test uses the same
comparison operators — and numpy's type promotion is monotone — "the
zone's max fails ``> lo``" implies every value in the zone fails it:
skipping is sound even for int64 values beyond float53 precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ranges import ValueInterval


def _jsonable(values: np.ndarray) -> list:
    """JSON-safe list form of a min/max array (NaN encodes as null)."""
    if values.dtype.kind == "f":
        return [None if math.isnan(v) else float(v) for v in values.tolist()]
    return [int(v) for v in values.tolist()]


def _from_jsonable(items: list, dtype: np.dtype) -> np.ndarray:
    if dtype.kind == "f":
        return np.array(
            [math.nan if v is None else float(v) for v in items], dtype=dtype
        )
    return np.array([int(v) for v in items], dtype=dtype)


@dataclass
class ColumnZones:
    """One column's per-zone statistics (arrays of length ``nzones``)."""

    mins: np.ndarray
    maxs: np.ndarray
    nulls: np.ndarray  # per-zone NaN counts (all zeros for int columns)

    def __post_init__(self) -> None:
        if not (len(self.mins) == len(self.maxs) == len(self.nulls)):
            raise ValueError("zone statistic arrays must have equal length")


@dataclass
class ZoneMapIndex:
    """Per-column zone statistics over a fixed row-range partitioning."""

    nrows: int
    zone_rows: int
    columns: dict[int, ColumnZones] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nrows <= 0:
            raise ValueError("zone maps require a positive row count")
        if self.zone_rows <= 0:
            raise ValueError("zone_rows must be positive")

    @property
    def nzones(self) -> int:
        return -(-self.nrows // self.zone_rows)

    def has(self, col: int) -> bool:
        return col in self.columns

    # ------------------------------------------------------------ learning

    def learn(self, col: int, values: np.ndarray) -> None:
        """Record zone statistics from one fully parsed column.

        Declines silently on anything unusable (wrong length, non-numeric
        dtype): zone maps are an opportunistic by-product, never a
        requirement.
        """
        if len(values) != self.nrows or values.dtype.kind not in "if":
            return
        starts = np.arange(self.nzones, dtype=np.int64) * self.zone_rows
        if values.dtype.kind == "f":
            # fmin/fmax ignore NaN: a mixed zone keeps its finite bounds,
            # an all-NaN zone gets NaN bounds (skipped whenever a bound
            # exists — exactly matching ValueInterval.mask on NaN rows).
            mins = np.fmin.reduceat(values, starts)
            maxs = np.fmax.reduceat(values, starts)
            nulls = np.add.reduceat(np.isnan(values).astype(np.int64), starts)
        else:
            mins = np.minimum.reduceat(values, starts)
            maxs = np.maximum.reduceat(values, starts)
            nulls = np.zeros(self.nzones, dtype=np.int64)
        self.columns[col] = ColumnZones(mins=mins, maxs=maxs, nulls=nulls)

    def drop_column(self, col: int) -> None:
        self.columns.pop(col, None)

    def extended(
        self, new_nrows: int, appended: dict[int, np.ndarray]
    ) -> "ZoneMapIndex":
        """A new index covering ``new_nrows`` rows after a tail-append.

        ``appended[col]`` holds the parsed values of the appended rows
        (length ``new_nrows - self.nrows``).  Zone statistics are
        associative, so the old zones survive untouched, the boundary
        zone (when the old row count did not land on a zone edge) merges
        its old bounds with the appended portion, and whole new zones are
        reduced from the appended values alone.  Columns without usable
        appended values (missing, wrong length, dtype changed) are
        dropped — they can be relearned by a later full-column parse.
        """
        added = new_nrows - self.nrows
        if added <= 0:
            raise ValueError("extended() requires a grown row count")
        out = ZoneMapIndex(nrows=new_nrows, zone_rows=self.zone_rows)
        first = self.nrows // self.zone_rows  # first zone touching new rows
        remainder = self.nrows % self.zone_rows
        starts = (
            np.arange(first, -(-new_nrows // self.zone_rows), dtype=np.int64)
            * self.zone_rows
        )
        local = np.maximum(starts - self.nrows, 0)
        for col, zones in self.columns.items():
            values = appended.get(col)
            if (
                values is None
                or len(values) != added
                or values.dtype != zones.mins.dtype
            ):
                continue
            if values.dtype.kind == "f":
                mins = np.fmin.reduceat(values, local)
                maxs = np.fmax.reduceat(values, local)
                nulls = np.add.reduceat(np.isnan(values).astype(np.int64), local)
            else:
                mins = np.minimum.reduceat(values, local)
                maxs = np.maximum.reduceat(values, local)
                nulls = np.zeros(len(local), dtype=np.int64)
            if remainder:
                # The old last zone was partial: fold its bounds into the
                # first reduced zone (fmin/fmax keep NaN-ignoring merge).
                if values.dtype.kind == "f":
                    mins[0] = np.fmin(mins[0], zones.mins[first])
                    maxs[0] = np.fmax(maxs[0], zones.maxs[first])
                else:
                    mins[0] = min(mins[0], zones.mins[first])
                    maxs[0] = max(maxs[0], zones.maxs[first])
                nulls[0] += zones.nulls[first]
            out.columns[col] = ColumnZones(
                mins=np.concatenate([zones.mins[:first], mins]),
                maxs=np.concatenate([zones.maxs[:first], maxs]),
                nulls=np.concatenate([zones.nulls[:first], nulls]),
            )
        return out

    # ------------------------------------------------------------ skipping

    def zone_keep_mask(self, col: int, interval: ValueInterval) -> np.ndarray | None:
        """Boolean mask of zones that *may* contain a qualifying row.

        ``None`` declines (no statistics for the column, or bounds the
        zone comparison cannot reason about) — the caller must then scan
        normally.  The test mirrors :meth:`ValueInterval.mask`: a zone is
        kept unless its max fails the lower bound or its min fails the
        upper bound, under the interval's own open/closed operators.
        """
        zones = self.columns.get(col)
        if zones is None or not _comparable_bounds(interval):
            return None
        keep = np.ones(len(zones.mins), dtype=bool)
        if interval.lo is not None:
            keep &= (
                (zones.maxs > interval.lo)
                if interval.lo_open
                else (zones.maxs >= interval.lo)
            )
        if interval.hi is not None:
            keep &= (
                (zones.mins < interval.hi)
                if interval.hi_open
                else (zones.mins <= interval.hi)
            )
        return keep

    # --------------------------------------------------------- persistence

    def snapshot(self) -> "ZoneMapIndex":
        """Shallow copy sharing the (immutable-by-convention) arrays."""
        return ZoneMapIndex(
            nrows=self.nrows, zone_rows=self.zone_rows, columns=dict(self.columns)
        )

    def as_manifest(self) -> dict:
        """JSON-safe form for the persistent store's manifest."""
        return {
            "nrows": self.nrows,
            "zone_rows": self.zone_rows,
            "columns": {
                str(col): {
                    "dtype": str(zones.mins.dtype),
                    "mins": _jsonable(zones.mins),
                    "maxs": _jsonable(zones.maxs),
                    "nulls": [int(v) for v in zones.nulls.tolist()],
                }
                for col, zones in self.columns.items()
            },
        }

    @classmethod
    def from_manifest(cls, manifest: dict) -> "ZoneMapIndex":
        """Inverse of :meth:`as_manifest`; raises on damaged input (the
        persistent store turns any such error into a plain cold miss)."""
        index = cls(
            nrows=int(manifest["nrows"]), zone_rows=int(manifest["zone_rows"])
        )
        for col, entry in (manifest.get("columns") or {}).items():
            dtype = np.dtype(str(entry["dtype"]))
            if dtype.kind not in "if":
                raise ValueError(f"zone map column {col}: bad dtype {dtype}")
            zones = ColumnZones(
                mins=_from_jsonable(entry["mins"], dtype),
                maxs=_from_jsonable(entry["maxs"], dtype),
                nulls=np.array([int(v) for v in entry["nulls"]], dtype=np.int64),
            )
            if len(zones.mins) != index.nzones:
                raise ValueError(f"zone map column {col}: zone count mismatch")
            index.columns[int(col)] = zones
        return index


def _comparable_bounds(interval: ValueInterval) -> bool:
    """Can zone min/max reason about this interval's bounds?

    Requires at least one bound, and every bound a non-NaN int or float
    (bools excluded: they compare numerically but never reach here from
    SQL).  A NaN bound would make the keep test all-False — consistent
    with the mask, but declining is simpler to reason about.
    """
    if interval.is_unbounded():
        return False
    for bound in (interval.lo, interval.hi):
        if bound is None:
            continue
        if isinstance(bound, bool) or not isinstance(bound, (int, float)):
            return False
        if isinstance(bound, float) and math.isnan(bound):
            return False
    return True
