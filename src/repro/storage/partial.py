"""Partially-loaded columns and their coverage table of contents.

This is the storage side of Partial Loads V2 (paper section 4.2): a column
whose values are materialized only for some rows, together with a sound
record of *which queries* those rows are guaranteed to answer.

The record is a list of :class:`CoverageCertificate`\\ s.  A certificate is
a conjunctive condition with the meaning:

    every row of the table that satisfies ``condition`` has its value
    materialized in this column.

Certificates are produced by the adaptive load operators: a partial load
driven by query ``Q`` stores exactly the rows satisfying ``Q`` and issues a
certificate with condition ``Q`` for every column it materialized; a full
column load issues the trivial (always true) certificate.  A later query
``Q'`` can be answered entirely from the store when, for every column it
needs, some certificate's condition is implied by ``Q'`` — e.g. repeated
queries, or "zoom-in" queries whose ranges are subsets of earlier ones,
exactly the exploratory pattern the paper motivates.

Which rows are materialized is recorded once, in ``loaded_mask``, with
``loaded_count`` kept beside it so the fully-loaded test every warm probe
makes stays O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError
from repro.flatfile.schema import DataType
from repro.ranges import Condition
from repro.strings import StringColumn


@dataclass(frozen=True)
class CoverageCertificate:
    """Proof that rows satisfying ``condition`` are materialized."""

    condition: Condition

    def covers_query(self, query: Condition) -> bool:
        """True when a query implying ``condition`` is fully answerable."""
        return query.implies(self.condition)

    @property
    def is_full(self) -> bool:
        return self.condition.is_trivial()


@dataclass
class PartialColumn:
    """A column materialized for a subset of rows.

    The backing array always has capacity for all ``nrows`` of the table;
    positions where :attr:`loaded_mask` is False contain garbage (for a
    STRING column, the :class:`~repro.strings.StringColumn`'s unloaded
    sentinel code) and must never be read.  :attr:`loaded_count` is the
    number of True entries.  Logical (budget-accounted) size is
    proportional to loaded rows only, matching the paper's framing of
    partial loading as a storage-footprint optimization.
    """

    name: str
    dtype: DataType
    nrows: int
    values: np.ndarray | StringColumn | None = None
    loaded_mask: np.ndarray | None = None
    loaded_count: int = 0
    certificates: list[CoverageCertificate] = field(default_factory=list)

    def _ensure_backing(self) -> None:
        if self.values is None:
            if self.dtype is DataType.STRING:
                self.values = StringColumn.unloaded(self.nrows)
            else:
                self.values = np.zeros(self.nrows, dtype=self.dtype.numpy_dtype)
            self.loaded_mask = np.zeros(self.nrows, dtype=bool)

    # -------------------------------------------------------------- loading

    def store(self, row_ids: np.ndarray, values: np.ndarray | StringColumn) -> int:
        """Materialize ``values`` at distinct ``row_ids``; returns rows
        newly loaded."""
        if len(row_ids) != len(values):
            raise ExecutionError(
                f"store: {len(row_ids)} row ids but {len(values)} values"
            )
        if len(row_ids) == 0:
            return 0
        self._ensure_backing()
        newly = int(np.count_nonzero(~self.loaded_mask[row_ids]))
        if isinstance(self.values, StringColumn):
            self.values = self.values.put(row_ids, self._typed(values))
        else:
            if not self.values.flags.writeable:
                # Restored from the persistent store as a read-only mapping:
                # copy-on-write to the heap before mutating in place.
                self.values = np.array(self.values)
            self.values[row_ids] = self._typed(values)
        self.loaded_mask[row_ids] = True
        self.loaded_count += newly
        return newly

    def store_full(self, values: np.ndarray | StringColumn) -> int:
        """Materialize the whole column in one go (column load)."""
        if len(values) != self.nrows:
            raise ExecutionError(
                f"store_full: column has {self.nrows} rows, got {len(values)} values"
            )
        self.values = self._typed(values)
        self.loaded_mask = np.ones(self.nrows, dtype=bool)
        newly = self.nrows - self.loaded_count
        self.loaded_count = self.nrows
        self.add_certificate(CoverageCertificate(Condition()))
        return newly

    def restore_full(self, values: np.ndarray | StringColumn) -> None:
        """Adopt an externally materialized full column (restart-warm).

        Unlike :meth:`store_full` this keeps the array object as-is: a
        read-only mapped array from the persistent store (a numeric
        column's values, a string column's codes) stays mapped, sharing
        its pages with every co-located engine instead of being copied
        onto the heap by ``np.asarray``'s dtype coercion.
        """
        if len(values) != self.nrows:
            raise ExecutionError(
                f"restore_full: column has {self.nrows} rows, got {len(values)} values"
            )
        self.values = values
        self.loaded_mask = np.ones(self.nrows, dtype=bool)
        self.loaded_count = self.nrows
        self.add_certificate(CoverageCertificate(Condition()))

    def widen(self, dtype: DataType) -> None:
        """Change the column's type to a wider one (schema widening).

        Numeric-to-numeric widening (int64 → float64) converts any loaded
        values in place, preserving fragments and certificates (and the
        budget accounting: logical bytes per numeric value are equal).
        Widening to string drops loaded data instead — the paper's
        lifetime principle makes that always legal, at worst one reload
        away.  The memory manager's registration is refreshed when the
        widened column is re-stored later in the same pass; in the brief
        window in between its stale entry may at worst be "evicted",
        which re-calls the (idempotent) drop.
        """
        if dtype is self.dtype:
            return
        if self.values is not None:
            if dtype.is_numeric and self.dtype.is_numeric:
                self.values = self.values.astype(dtype.numpy_dtype)
            else:
                self.drop()
        self.dtype = dtype

    def grow(
        self, new_nrows: int, appended: np.ndarray | StringColumn | None = None
    ) -> bool:
        """Grow row capacity to ``new_nrows`` after a pure tail-append.

        A fully loaded column handed the appended rows' parsed values
        stays fully loaded: the values are concatenated (off any memmap
        backing, onto the heap; a string column's existing codes stay
        put) and the full-coverage certificate is refreshed.  Returns
        True in that case.  Every other state drops its fragments
        instead — a partial certificate's "rows satisfying
        Q are materialized" no longer holds over the grown row space —
        which is always legal under the store's lifetime principle.
        """
        added = new_nrows - self.nrows
        if added < 0:
            raise ExecutionError(
                f"column {self.name!r}: cannot shrink from {self.nrows} to {new_nrows} rows"
            )
        if added == 0:
            return self.is_fully_loaded and self.values is not None
        if (
            self.is_fully_loaded
            and self.values is not None
            and appended is not None
            and len(appended) == added
        ):
            tail = self._typed(appended)
            if isinstance(self.values, StringColumn):
                self.values = StringColumn.concat([self.values, tail])
            else:
                self.values = np.concatenate([np.asarray(self.values), tail])
            self.nrows = new_nrows
            self.loaded_mask = np.ones(new_nrows, dtype=bool)
            self.loaded_count = new_nrows
            self.add_certificate(CoverageCertificate(Condition()))
            return True
        self.drop()
        self.nrows = new_nrows
        return False

    def add_certificate(self, cert: CoverageCertificate) -> None:
        """Record coverage, dropping certificates the new one subsumes."""
        if cert.is_full:
            self.certificates = [cert]
            return
        if any(existing.condition == cert.condition for existing in self.certificates):
            return
        if any(existing.is_full for existing in self.certificates):
            return
        self.certificates.append(cert)

    # ------------------------------------------------------------- queries

    @property
    def is_fully_loaded(self) -> bool:
        return self.loaded_count == self.nrows

    @property
    def is_mapped(self) -> bool:
        """Backed by the persistent store's read-only mapping.

        A restore hands out a plain view of an ``np.memmap``, so this
        asks the view's ``.base``: any copy onto the heap (``store``,
        ``grow``, ``widen``, ``store_full``) has another base or none.
        Dropping such a column releases the mapping, never the file.  A
        string column never is: even with memmapped codes its dictionary
        is decoded onto the heap, so it counts against the heap budget.
        """
        return isinstance(getattr(self.values, "base", None), np.memmap)

    def covers_query(self, query: Condition) -> bool:
        return any(cert.covers_query(query) for cert in self.certificates)

    def qualifying_mask(self, interval) -> np.ndarray:
        """Global row mask of loaded rows whose value lies in ``interval``.

        Positions not loaded are False regardless of backing-array garbage.
        """
        if self.values is None:
            return np.zeros(self.nrows, dtype=bool)
        if self.dtype is DataType.STRING:
            # Unloaded string slots hold a sentinel code that names no
            # value: test the loaded positions only.
            rows = np.flatnonzero(self.loaded_mask)
            member = np.zeros(self.nrows, dtype=bool)
            member[rows] = interval.mask(self.values[rows])
            return member
        return self.loaded_mask & interval.mask(self.values)

    def values_at(self, row_ids: np.ndarray) -> np.ndarray | StringColumn:
        """Fetch values at specific rows; raises if any row is not loaded."""
        if len(row_ids) == 0:
            if self.dtype is DataType.STRING:
                return StringColumn.empty()
            return np.empty(0, dtype=self.dtype.numpy_dtype)
        if self.values is None or not self.loaded_mask[row_ids].all():
            raise ExecutionError(
                f"column {self.name!r}: values_at touches rows that are not loaded"
            )
        return self.values[row_ids]

    # ----------------------------------------------------------- accounting

    @property
    def logical_nbytes(self) -> int:
        """Budget-accounted bytes: loaded values only (plus the mask).

        A numeric value is 8 bytes; a string is its 4-byte code, plus
        the dictionary's bytes once per column.
        """
        if self.values is None:
            return 0
        if isinstance(self.values, StringColumn):
            unloaded = self.nrows - self.loaded_count
            return self.values.nbytes - 4 * unloaded + (self.nrows // 8)
        return self.loaded_count * 8 + (self.nrows // 8)

    def _typed(self, values):
        """``values`` in this column's in-memory form."""
        if self.dtype is DataType.STRING:
            if not isinstance(values, StringColumn):
                raise ExecutionError(
                    f"column {self.name!r}: string values must arrive encoded"
                )
            return values
        return np.asarray(values, dtype=self.dtype.numpy_dtype)

    def drop(self) -> None:
        """Evict everything (adaptive-store lifetime management)."""
        self.values = None
        self.loaded_mask = None
        self.loaded_count = 0
        self.certificates = []
