"""Positional map: the learned "table of contents over the flat file".

Section 4.1.5 of the paper ("Learning") proposes that every touch of a flat
file should teach the system something about the file's physical structure
— where attributes begin inside rows — so that future loads do less
tokenization work.  This module is that structure, and the only module
that knows its layout: everything else calls its methods, and the store
saves it through :meth:`PositionalMap.export`/:meth:`~PositionalMap.from_export`.

Per flat file the map stores ``nrows`` (fixed by the first pass that
frames the whole file) and **one frame**: a row-major ``int64`` array of
shape ``(nrows, K + 2)`` when columns ``0..K`` are known.  Known columns
always form a prefix (every learner locates fields left to right).  Frame
column ``c`` is field ``c``'s start in every row, and column ``K + 1`` is
field ``K``'s end plus ``sep``, the dialect adapter's separator width (1
for delimited dialects, 0 for fixed-width).  Field ``c``'s span is
``(frame[:, c], frame[:, c + 1] - sep)``: ends are derived, never stored.
One row of the frame is one row of the file, so a tail-append adds rows
at the end of the array (and of its store file), and a query that reads
a few rows gathers them row by row.

Both learners hand over a whole frame (:meth:`PositionalMap.record_frame`).
The vectorized kernel frames every column of every row in one pass, so
the first pass over a file offers every column.  Only the dialect loop
(quoted CSV, ragged rows) learns a shorter prefix: the columns up to
the last one its pass needed.  A wider frame replaces the known one
when it agrees with it (same ``sep``, same last shared boundary); any
other frame is not recorded.  A tail-append cuts the map
to the prefix the tail learned again.  Neither tokenizer reads the spans
back; both derive every position from the text itself.

When the spans of every column a pass needs are known
(:meth:`PositionalMap.knows_column`), the loader skips tokenization entirely:
it reads each run of adjacent wanted columns, padded by its
separators, in a block read and cuts the fields out of it (the
selective-read fast path), after checking that the spans lie in file
order and each sits between separators.  Offsets are *byte* offsets
into the raw file, on any UTF-8 content: the kernel frames bytes, and
the dialect loop converts its character offsets into decoded text to
bytes before it offers a frame.

A recorded span covers the **encoded** field text (quotes, TSV escapes,
fixed-width padding) as the dialect frames it (:mod:`repro.flatfile.
dialects`); gathered text goes through the adapter's ``decode_many``
before parsing.  Span-less dialects (JSON-lines) record the row count
only, and the selective fast path never activates for them.

The map is append-only and never trusted blindly: it is invalidated
together with all other derived state when the source file's fingerprint
changes (section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

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
    frame:
        The ``(nrows, K + 2)`` ``int64`` boundary array when columns
        ``0..K`` are known, ``None`` otherwise (see the module
        docstring).  Never written in place: learning replaces it.
    """

    nrows: int | None = None
    sep: int | None = None
    frame: np.ndarray | None = None

    # ------------------------------------------------------------ learning

    def record_nrows(self, nrows: int) -> None:
        """Store the data-row count (idempotent; first writer wins)."""
        if self.nrows is None:
            self.nrows = int(nrows)

    def record_frame(self, frame: np.ndarray, *, sep: int) -> None:
        """Offer a frame: ``frame[:, c]`` is field ``c``'s start and the
        last column the last field's end plus ``sep``.

        Kept whole when it is wider than the known frame and agrees with
        it: same ``sep``, and the same last shared boundary.
        """
        frame = np.asarray(frame, dtype=np.int64)
        if frame.ndim != 2:
            raise ValueError(f"a frame is two-dimensional, not {frame.shape}")
        self.record_nrows(len(frame))
        if len(frame) != self.nrows:
            raise ValueError(f"frame of {len(frame)} rows for {self.nrows} rows")
        have = self.width
        if frame.shape[1] < 2 or frame.shape[1] <= have:
            return
        if have and (
            sep != self.sep or not np.array_equal(frame[:, have - 1], self.frame[:, -1])
        ):
            return
        self.sep, self.frame = sep, frame

    # ----------------------------------------------------------- exploiting

    @property
    def width(self) -> int:
        """Columns of the frame: known columns plus one, or 0."""
        return 0 if self.frame is None else self.frame.shape[1]

    def knows_column(self, col: int) -> bool:
        """True when ``col``'s field span is known in every row."""
        return 0 <= col < self.width - 1

    def run_slices(
        self, cols: Sequence[int], rows: np.ndarray | None = None
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """``{col: (starts, ends)}`` of a run of adjacent columns, in every
        row or in ``rows`` (an integer index array) only.

        Each boundary the run needs comes out of the frame as one
        contiguous array, so every later pass over a span runs at full
        speed: a fancy-index gather of ``rows`` down the frame column
        (as fast as a gather from a contiguous array), or a copy of the
        column.  Never ``np.take`` down a strided column: NumPy copies
        the whole column first.
        """
        first, last = cols[0], cols[-1]
        if list(cols) != list(range(first, last + 1)) or not (
            self.knows_column(first) and self.knows_column(last)
        ):
            raise KeyError(f"columns {list(cols)} are not a known run of the map")
        bounds = [
            self.frame[:, j].copy() if rows is None else self.frame[:, j][rows]
            for j in range(first, last + 2)
        ]
        return {c: (bounds[i], bounds[i + 1] - self.sep) for i, c in enumerate(cols)}

    def slices_for(
        self, col: int, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` of ``col``'s field ranges, in every row or in
        ``rows`` only (see :meth:`run_slices`)."""
        return self.run_slices([col], rows)[col]

    def known_columns(self) -> list[int]:
        return list(range(self.width - 1))

    @property
    def nbytes(self) -> int:
        """Bytes the frame holds."""
        return 0 if self.frame is None else int(self.frame.nbytes)

    def truncate(self, ncols: int) -> None:
        """Keep only columns ``0..ncols - 1`` of the known prefix, in a
        copy: the cut columns' memory is freed."""
        if ncols < self.width - 1:
            self.frame = self.frame[:, : ncols + 1].copy() if ncols > 0 else None

    def copy(self) -> "PositionalMap":
        """A snapshot sharing the (never written) frame."""
        return replace(self)

    def extends(self, snapshot: "PositionalMap") -> bool:
        """Does this map still hold every boundary of ``snapshot`` (a
        :meth:`copy`)?  Learning only widens the frame, so False means
        the map was cleared, cut or framed afresh to other offsets since."""
        if snapshot.frame is None or self.frame is snapshot.frame:
            return True
        return (
            self.width >= snapshot.width
            and len(self.frame) == len(snapshot.frame)
            and np.array_equal(self.frame[:, : snapshot.width], snapshot.frame)
        )

    # ---------------------------------------------------------- persisting

    def export(self) -> tuple[dict, np.ndarray | None]:
        """``(meta, frame)``: JSON-safe metadata plus the frame to save
        (``None`` when no column is known); :meth:`from_export` is the
        inverse."""
        meta = {
            "nrows": self.nrows,
            "sep": self.sep,
            "columns": len(self.known_columns()),
        }
        return meta, self.frame

    @classmethod
    def from_export(cls, meta: dict, frame: np.ndarray | None) -> "PositionalMap":
        """Rebuild an exported map; ``ValueError`` on any inconsistency,
        a frame of the wrong shape included."""
        nrows = meta.get("nrows")
        ncols = int(meta.get("columns") or 0)
        shape = None if frame is None else np.shape(frame)
        if shape != ((nrows, ncols + 1) if ncols else None):
            raise ValueError(f"a frame of shape {shape} for {ncols} columns")
        return cls(
            nrows=None if nrows is None else int(nrows),
            sep=int(meta["sep"]) if ncols else None,
            frame=frame,
        )

    # ---------------------------------------------------------- lifecycle

    def clear(self) -> None:
        """Forget everything (called when the source file was edited)."""
        self.nrows, self.sep, self.frame = None, None, None

    def extend_tail(self, tail: "PositionalMap", added_rows: int, shift: int) -> None:
        """Absorb a map learned over an appended tail region of the file.

        ``tail`` was learned by tokenizing only the appended bytes as a
        standalone document, so its offsets are relative to the start of
        the appended region; they are shifted by ``shift``, the old
        file's byte size, and appended as rows.  The map is cut to the
        prefix the tail pass learned again (a column cannot be kept
        half-length).
        """
        if self.nrows is None:
            return  # knows nothing
        width = 0
        if tail.nrows == added_rows and tail.sep == self.sep:
            width = min(self.width, tail.width)
        frame = None
        if width:
            frame = np.concatenate([self.frame[:, :width], tail.frame[:, :width] + shift])
        self.frame = frame
        self.nrows += added_rows
