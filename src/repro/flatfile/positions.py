"""Positional map: the learned "table of contents over the flat file".

Section 4.1.5 of the paper ("Learning") proposes that every touch of a flat
file should teach the system something about the file's physical structure
— where attributes begin inside rows — so that future loads do less
tokenization work.  This module is that structure, and the only module
that knows its layout: everything else calls its methods, and the store
saves it through :meth:`PositionalMap.export`/:meth:`~PositionalMap.from_export`.

Per flat file the map stores ``nrows`` (fixed by the first pass that
frames the whole file) and **one boundary array per known column, plus
one**.  Known columns always form a prefix ``0..K`` (every learner locates
fields left to right), and the map keeps ``K + 2`` ``int64[nrows]``
arrays: boundary ``c`` is field ``c``'s start in every row, and boundary
``K + 1`` is field ``K``'s end plus ``sep``, the dialect adapter's
separator width (1 for delimited dialects, 0 for fixed-width).  Field
``c``'s span is ``(bound[c], bound[c + 1] - sep)``: ends are derived,
never stored.  Learners still hand over ``(starts, ends)`` and the map
decides what it keeps: learning column ``K + 1`` appends one array,
because the last boundary is exactly the next field's real start, and a
column that does not extend the prefix that way is not recorded.
Merging partitions keeps the shortest shared prefix; a tail-append cuts
the map to the prefix the tail learned again.

The vectorized kernel frames every column of every row in one pass, so
the first pass over a file hands the map the whole frame
(:meth:`PositionalMap.record_frame`) and the prefix is then every
column.  Only the dialect loop (quoted CSV, ragged rows, non-ASCII
fixed-width) still learns a shorter prefix, and there a later load of
column *j* is anchored at the closest already-known column at or before
*j* (:meth:`PositionalMap.known_columns`): the pass scans over only the
``j - anchor`` fields from the anchor to *j*.  The kernel takes only
which columns are known, to charge its work counters as those jumps
would, and derives every position from the bytes themselves.

When the spans of every column a pass needs are known
(:meth:`PositionalMap.knows_column`), the loader skips tokenization entirely:
it reads each run of adjacent wanted columns, padded by its
separators, in a block read and cuts the fields out of it (the
selective-read fast path), after checking that the spans lie in file
order and each sits between separators.  Offsets are *character*
offsets into the decoded text; :meth:`record_text_geometry` remembers
whether characters and bytes coincide (pure-ASCII files), which is the
precondition for using the offsets as byte ranges.

A recorded span covers the **encoded** field text (quotes, TSV escapes,
fixed-width padding) as the dialect frames it (:mod:`repro.flatfile.
dialects`); gathered text goes through the adapter's ``decode_many``
before parsing.  Span-less dialects (JSON-lines) record the row count
only, and the selective fast path never activates for them.  Row-start
offsets are not kept: no query route reads them.

The map is append-only and never trusted blindly: it is invalidated
together with all other derived state when the source file's fingerprint
changes (section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np


@dataclass
class PositionalMap:
    """Byte-offset knowledge about one flat file.

    Attributes
    ----------
    nrows:
        Number of data rows in the file; fixed at first learning pass.
    sep:
        Separator width of the recorded spans, or ``None`` before the
        first span is recorded.
    bounds:
        ``K + 2`` ``int64[nrows]`` boundary arrays when columns ``0..K``
        are known, empty otherwise (see the module docstring).
    text_geometry:
        ``(nbytes, nchars)`` of the file as last fully scanned, or ``None``
        if no full scan has reported it yet.  When the two are equal the
        file is pure single-byte text and learned character offsets are
        valid byte ranges (see :attr:`sliceable`).
    """

    nrows: int | None = None
    sep: int | None = None
    bounds: list[np.ndarray] = field(default_factory=list)
    text_geometry: tuple[int, int] | None = None

    # ------------------------------------------------------------ learning

    def record_nrows(self, nrows: int) -> None:
        """Store the data-row count (idempotent; first writer wins)."""
        if self.nrows is None:
            self.nrows = int(nrows)

    def record_field_offsets(
        self, col: int, offsets: np.ndarray, ends: np.ndarray, *, sep: int
    ) -> None:
        """Offer the field-start and field-end offsets of ``col``.

        Kept only when ``col`` is the next column of the known prefix
        (first writer wins); ``sep`` is the dialect's separator width.
        """
        starts = np.asarray(offsets, dtype=np.int64)
        end_arr = np.asarray(ends, dtype=np.int64)
        self.record_nrows(len(starts))
        if not len(starts) == len(end_arr) == self.nrows:
            raise ValueError(
                f"column {col}: {len(starts)} starts and {len(end_arr)} ends "
                f"for {self.nrows} rows"
            )
        if col == max(len(self.bounds) - 1, 0):
            self._grow(col + 2, sep, lambda j: starts if j == col else end_arr + sep)

    def record_frame(self, bounds: list[np.ndarray], *, sep: int) -> None:
        """Offer boundary arrays ``0..len(bounds) - 1`` in one call.

        The vectorized kernel frames every column of every row, so it
        hands over the whole frame at once: ``bounds[c]`` is field
        ``c``'s start and the last array is the last field's end plus
        ``sep``.  Kept as far as it extends the known prefix, under the
        agreement rule of :meth:`record_field_offsets`.
        """
        self.record_nrows(len(bounds[0]))
        if any(len(b) != self.nrows for b in bounds):
            raise ValueError(
                f"frame of {[len(b) for b in bounds]} rows for {self.nrows} rows"
            )
        self._grow(len(bounds), sep, lambda j: bounds[j])

    def record_text_geometry(self, nbytes: int, nchars: int) -> None:
        """Remember the byte/character sizes seen by a full scan."""
        if self.text_geometry is None:
            self.text_geometry = (nbytes, nchars)

    def _grow(
        self, width: int, sep: int, bound: Callable[[int], np.ndarray]
    ) -> None:
        """Extend the prefix to ``width`` boundary arrays (``bound(j)``
        builds array ``j``), if the candidate agrees with what is known:
        same ``sep``, and the same last boundary."""
        have = len(self.bounds)
        if width < 2 or width <= have:
            return
        if not have:
            self.sep = sep
        elif sep != self.sep or not np.array_equal(bound(have - 1), self.bounds[-1]):
            return
        self.bounds.extend(bound(j) for j in range(have, width))

    # ----------------------------------------------------------- exploiting

    def knows_column(self, col: int) -> bool:
        """True when ``col``'s field span is known in every row."""
        return 0 <= col < len(self.bounds) - 1

    @property
    def sliceable(self) -> bool:
        """True when learned character offsets double as byte offsets."""
        return self.text_geometry is not None and (
            self.text_geometry[0] == self.text_geometry[1]
        )

    def slices_for(
        self, col: int, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` of ``col``'s field ranges, in every row or in
        ``rows`` (an integer index array) only.

        With ``rows``, both arrays are taken first and the end is derived
        in place, so the result costs two ``len(rows)`` arrays and no
        ``nrows``-long temporary.
        """
        if not self.knows_column(col):
            raise KeyError(f"column {col} is not in the positional map")
        starts, nexts = self.bounds[col], self.bounds[col + 1]
        if rows is None:
            return starts, (nexts - self.sep if self.sep else nexts)
        starts, ends = np.take(starts, rows), np.take(nexts, rows)
        if self.sep:
            ends -= self.sep
        return starts, ends

    def known_columns(self) -> list[int]:
        return list(range(len(self.bounds) - 1))

    @property
    def nbytes(self) -> int:
        """Bytes the boundary arrays hold."""
        return sum(int(b.nbytes) for b in self.bounds)

    def truncate(self, ncols: int) -> None:
        """Keep only columns ``0..ncols - 1`` of the known prefix."""
        if ncols < len(self.bounds) - 1:
            self.bounds = self.bounds[: ncols + 1] if ncols > 0 else []

    def copy(self) -> "PositionalMap":
        """A snapshot sharing the (immutable) arrays, not the prefix list."""
        return replace(self, bounds=list(self.bounds))

    # ---------------------------------------------------------- persisting

    def export(self) -> tuple[dict, list[np.ndarray]]:
        """``(meta, arrays)``: JSON-safe metadata plus the arrays to save,
        in order; :meth:`from_export` is the inverse."""
        meta = {
            "nrows": self.nrows,
            "sep": self.sep,
            "columns": len(self.known_columns()),
            "text_geometry": list(self.text_geometry) if self.text_geometry else None,
        }
        return meta, list(self.bounds)

    @classmethod
    def from_export(
        cls, meta: dict, arrays: list[np.ndarray]
    ) -> "PositionalMap":
        """Rebuild an exported map; ``ValueError`` on any inconsistency."""
        nrows, geometry = meta.get("nrows"), meta.get("text_geometry")
        ncols = int(meta.get("columns") or 0)
        if len(arrays) != (ncols + 1 if ncols else 0) or any(
            len(a) != nrows for a in arrays
        ):
            raise ValueError(f"{len(arrays)} boundary arrays for {ncols} columns")
        return cls(
            nrows=None if nrows is None else int(nrows),
            sep=int(meta["sep"]) if arrays else None,
            bounds=list(arrays),
            text_geometry=None if geometry is None else tuple(map(int, geometry)),
        )

    # ---------------------------------------------------------- lifecycle

    def clear(self) -> None:
        """Forget everything (called when the source file was edited)."""
        self.nrows, self.sep, self.bounds, self.text_geometry = None, None, [], None

    def absorb_partitions(
        self, parts: list["PositionalMap"], char_bases: list[int]
    ) -> None:
        """Merge per-partition maps (partition-relative offsets) into self.

        ``parts[i]`` was learned over partition ``i`` of the file in
        isolation, so its offsets are relative to the partition's first
        character; ``char_bases[i]`` is that partition's character offset
        in the full decoded text.  Merging shifts and concatenates, with
        the same first-writer-wins semantics as serial learning:

        * the row count is the sum of the partitions' counts, when every
          partition framed its rows;
        * the known prefix is the shortest one every partition shares,
          mirroring the serial rule that spans are recorded only when
          learned for all rows;
        * text geometry is the sum of the partitions' byte/char sizes —
          partitions tile the file, so the sums equal a full scan's view.
        """
        if len(parts) != len(char_bases):
            raise ValueError(
                f"{len(parts)} partition maps but {len(char_bases)} bases"
            )
        if not parts:
            return
        if all(p.nrows is not None for p in parts):
            self.record_nrows(sum(p.nrows for p in parts))
        seps = {p.sep for p in parts}
        if len(seps) == 1:
            self._grow(
                min(len(p.bounds) for p in parts),
                seps.pop(),
                lambda j: np.concatenate(
                    [p.bounds[j] + base for p, base in zip(parts, char_bases)]
                ),
            )
        geometries = [p.text_geometry for p in parts]
        if all(g is not None for g in geometries):
            self.record_text_geometry(
                nbytes=sum(g[0] for g in geometries),
                nchars=sum(g[1] for g in geometries),
            )

    def extend_tail(self, tail: "PositionalMap", added_rows: int) -> None:
        """Absorb a map learned over an appended tail region of the file.

        ``tail`` was learned by tokenizing only the appended bytes as a
        standalone document, so its offsets are relative to the start of
        the appended region; they are shifted by the old text's character
        size and concatenated.  The map is cut to the prefix the tail
        pass learned again (a column cannot be kept half-length) — the
        same opportunistic semantics as partition merging.  A map with no
        recorded geometry cannot shift offsets and is cleared instead
        (callers treat that as "relearn later").
        """
        if self.nrows is None and not self.bounds and self.text_geometry is None:
            return  # knows nothing
        if self.text_geometry is None or tail.text_geometry is None:
            self.clear()
            return
        char_base = self.text_geometry[1]
        width = 0
        if tail.nrows == added_rows and tail.sep == self.sep:
            width = min(len(self.bounds), len(tail.bounds))
        self.bounds = [
            np.concatenate([self.bounds[j], tail.bounds[j] + char_base])
            for j in range(width)
        ]
        self.nrows = (self.nrows or 0) + added_rows
        self.text_geometry = (
            self.text_geometry[0] + tail.text_geometry[0],
            self.text_geometry[1] + tail.text_geometry[1],
        )
