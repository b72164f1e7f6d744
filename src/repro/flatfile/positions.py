"""Positional map: the learned "table of contents over the flat file".

Section 4.1.5 of the paper ("Learning") proposes that every touch of a flat
file should teach the system something about the file's physical structure
— where rows begin, where attributes begin inside rows — so that future
loads do less tokenization work.  This module is that structure.

The map stores, per flat file:

* ``nrows`` — the number of data rows, fixed by the first pass that frames
  the whole file;
* per-column arrays of **field start offsets**, one ``int64`` per row,
  recorded as a side effect whenever a tokenization pass locates that
  column in every row;
* per-column arrays of **field end offsets**, recorded alongside the
  starts, so that a known column is a pure byte *slice* of the file — no
  rescanning needed to find where the field stops.

A later load of column *j* is anchored at the closest already-known
column at or before *j* (:meth:`PositionalMap.known_columns`).  The
anchor sets the accounting: the pass scans over only the ``j - anchor``
fields from the anchor to *j* instead of ``j`` fields from the start of
the row, and over none when the anchor *is* ``j``.  The vectorized kernel
takes only which columns are known and derives every position from the
bytes themselves.

When the spans of every column a pass needs are known
(:meth:`PositionalMap.knows_column`), the loader skips tokenization entirely:
it reads only the required byte ranges from the file and gathers the
fields directly (the selective-read fast path).  Offsets are *character*
offsets into the decoded text; :meth:`record_text_geometry` remembers
whether characters and bytes coincide (pure-ASCII files), which is the
precondition for using the offsets as byte ranges.

Under the dialect layer (:mod:`repro.flatfile.dialects`) a recorded span
covers the **encoded** field text — for quoted CSV that includes the
quotes, for TSV the backslash escapes, for fixed-width the padding — and
always lands on field starts/ends as the dialect frames them.  Gathered
span text is passed through the adapter's ``decode_many`` before parsing,
so the selective path returns the same logical values as a full scan.
Span-less dialects (JSON-lines) record the row count only, and the
selective fast path simply never activates for them.

Row-start offsets are not kept: no query route reads them, and a pass
that needs row boundaries frames the text itself.

The map is append-only and never trusted blindly: it is invalidated
together with all other derived state when the source file's fingerprint
changes (section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PositionalMap:
    """Byte-offset knowledge about one flat file.

    Attributes
    ----------
    nrows:
        Number of data rows in the file; fixed at first learning pass.
    field_offsets:
        Mapping column index -> ``int64[nrows]`` byte offset of that
        column's field start in every row.
    field_ends:
        Mapping column index -> ``int64[nrows]`` byte offset one past the
        last character of that column's field in every row.
    text_geometry:
        ``(nbytes, nchars)`` of the file as last fully scanned, or ``None``
        if no full scan has reported it yet.  When the two are equal the
        file is pure single-byte text and learned character offsets are
        valid byte ranges (see :attr:`sliceable`).
    """

    nrows: int | None = None
    field_offsets: dict[int, np.ndarray] = field(default_factory=dict)
    field_ends: dict[int, np.ndarray] = field(default_factory=dict)
    text_geometry: tuple[int, int] | None = None

    # ------------------------------------------------------------ learning

    def record_nrows(self, nrows: int) -> None:
        """Store the data-row count (idempotent; first writer wins)."""
        if self.nrows is None:
            self.nrows = int(nrows)

    def record_field_offsets(
        self, col: int, offsets: np.ndarray, ends: np.ndarray
    ) -> None:
        """Store the field-start and field-end offsets of ``col``."""
        arr = np.asarray(offsets, dtype=np.int64)
        end_arr = np.asarray(ends, dtype=np.int64)
        self.record_nrows(len(arr))
        for name, got in (("offsets", arr), ("ends", end_arr)):
            if len(got) != self.nrows:
                raise ValueError(
                    f"field {name} for column {col} have {len(got)} entries, "
                    f"expected {self.nrows}"
                )
        if col not in self.field_offsets:
            self.field_offsets[col] = arr
            self.field_ends[col] = end_arr

    def record_text_geometry(self, nbytes: int, nchars: int) -> None:
        """Remember the byte/character sizes seen by a full scan."""
        if self.text_geometry is None:
            self.text_geometry = (nbytes, nchars)

    def absorb_offsets(
        self,
        cols: list[int],
        starts: list[np.ndarray],
        ends: list[np.ndarray],
    ) -> None:
        """Bulk-learn several columns' field spans in one call.

        The vectorized kernel hands over whole columns of its row×field
        offset matrix (``starts[i]``/``ends[i]`` are ``int64[nrows]``
        arrays for column ``cols[i]``) instead of offering one field at a
        time.  Semantics match serial learning: first writer wins per
        column, and every array must cover every row.
        """
        if not (len(cols) == len(starts) == len(ends)):
            raise ValueError(
                f"absorb_offsets: {len(cols)} columns but "
                f"{len(starts)} start and {len(ends)} end arrays"
            )
        for col, s, e in zip(cols, starts, ends):
            if not self.knows_column(col):
                self.record_field_offsets(col, s, e)

    # ----------------------------------------------------------- exploiting

    def knows_column(self, col: int) -> bool:
        """True when ``col``'s field span is known in every row."""
        return col in self.field_offsets

    @property
    def sliceable(self) -> bool:
        """True when learned character offsets double as byte offsets."""
        return self.text_geometry is not None and (
            self.text_geometry[0] == self.text_geometry[1]
        )

    def slices_for(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` arrays of ``col``'s field byte ranges."""
        return self.field_offsets[col], self.field_ends[col]

    def known_columns(self) -> list[int]:
        return sorted(self.field_offsets)

    def clear(self) -> None:
        """Forget everything (called when the source file was edited)."""
        self.nrows = None
        self.field_offsets.clear()
        self.field_ends.clear()
        self.text_geometry = None

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
        * a column's field spans merge only when *every* partition knows
          them, mirroring the serial rule that spans are recorded only
          when learned for all rows;
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
        shared = set(parts[0].field_offsets)
        for p in parts[1:]:
            shared &= set(p.field_offsets)
        for col in sorted(shared):
            starts = np.concatenate(
                [p.field_offsets[col] + base for p, base in zip(parts, char_bases)]
            )
            ends = np.concatenate(
                [p.field_ends[col] + base for p, base in zip(parts, char_bases)]
            )
            self.record_field_offsets(col, starts, ends)
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
        size and concatenated.  A column's spans the tail pass did not
        relearn are dropped for safety rather than kept half-length — the same opportunistic semantics as partition
        merging.  A map with no recorded geometry cannot shift offsets
        and is cleared instead (callers treat that as "relearn later").
        """
        knows_nothing = (
            self.nrows is None
            and not self.field_offsets
            and self.text_geometry is None
        )
        if knows_nothing:
            return
        if self.text_geometry is None or tail.text_geometry is None:
            self.clear()
            return
        char_base = self.text_geometry[1]
        new_geometry = (
            self.text_geometry[0] + tail.text_geometry[0],
            self.text_geometry[1] + tail.text_geometry[1],
        )
        for col in list(self.field_offsets):
            if (
                tail.knows_column(col)
                and len(tail.field_offsets[col]) == added_rows
            ):
                self.field_offsets[col] = np.concatenate(
                    [self.field_offsets[col], tail.field_offsets[col] + char_base]
                )
                self.field_ends[col] = np.concatenate(
                    [self.field_ends[col], tail.field_ends[col] + char_base]
                )
            else:
                self.field_offsets.pop(col, None)
                self.field_ends.pop(col, None)
        self.nrows = (self.nrows or 0) + added_rows
        self.text_geometry = new_geometry
