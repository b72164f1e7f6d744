"""Vectorized bulk-tokenization kernel: the tokenize hot path in NumPy.

The paper's selective tokenizer walks each row field by field, one
``str.find`` per delimiter; its cost model (tokenizing fewer columns is
cheaper) is what the experiments rely on, but from Python every byte
would be touched by the interpreter.  This kernel performs the *same*
pass over the raw bytes in bulk:

1. **one blocked separator pass, straight into the frame** — the bytes
   are cut into blocks of about :data:`_FRAME_BLOCK`, each ending at a
   newline, and each block's lines counted, so the
   ``(nrows, ncols + 1)`` frame is allocated once.  Then, block by
   block, the delimiter and newline masks are written into two reused
   buffers and one ``np.flatnonzero`` locates every separator.  Both are ASCII bytes and UTF-8 never embeds ASCII values
   in multi-byte sequences, so byte scanning is safe for any UTF-8
   content.  When a block is regular — no line ends in CR, no line is
   blank and every line holds ``ncols - 1`` delimiters — its separator
   positions reshape to a ``(rows, ncols)`` grid whose last column is
   the newlines, and that grid, plus one, *is* the block's frame rows:
   column ``c`` runs from ``frame[:, c]`` to ``frame[:, c + 1] - 1``
   (the bulk framing of Mühlbauer et al., "Instant Loading for Main
   Memory Databases", PVLDB 2013).  The frame is the pass's only
   file-sized array;
2. **the fallback frame** — anything else (blank lines, CRLF, a missing
   final newline, ragged rows, fixed-width input) is framed by newline
   rows, then by the fixed widths or by per-row delimiter counts from
   two ``searchsorted`` calls, into the same frame; a ragged row (a
   delimiter count other than ``ncols - 1``, or the wrong width) makes
   the kernel decline, and :func:`~repro.flatfile.tokenizer.
   tokenize_bytes` falls back to the adapter's field loop
   (:func:`~repro.flatfile.tokenizer.tokenize_dialect`) *for that input
   only*, which frames rows, learns spans and raises "fewer than N
   fields" the same way;
3. **columnar fields as spans** — a needed column leaves the kernel as
   :class:`~repro.flatfile.tokenizer.FieldSpans` (the buffer, starts
   and lengths out of the frame); nothing is cut out of the buffer
   here.  The parser reads a plain digit column straight from the
   spans and cuts any other into an array (``S`` bytes on pure-ASCII
   input, ``U`` otherwise).  Pushdown predicates are evaluated
   column-by-column over the still-candidate rows, each as one bulk
   call (``pred.mask``: one parse of the candidate spans, one range
   mask — never a Python call per value), so a failing early column
   spares every later column's work;
4. **the whole frame is learned** — either frame holds every column of
   every row, so the positional map is offered all of it at once
   (:meth:`~repro.flatfile.positions.PositionalMap.record_frame`: the
   very byte frame, no copy, on any UTF-8 input), whatever the pass
   needed or its predicates abandoned.  A later query on any column is
   then a window read cut by the map (:mod:`repro.core.loader`), not
   another framing pass.

The kernel writes the positional map and never reads it, beyond asking
whether it already knows every column: a map — empty, warm or with
garbage spans — changes neither an answer nor a counter.  The counters
are the work done (:class:`~repro.flatfile.tokenizer.TokenizerStats`):
``chars_scanned`` is the whole input, read once; ``fields_tokenized``
the fields cut out of it.  ``tests/flatfile/test_vectorized.py`` holds
fields, row ids, learned spans, predicate calls and errors equal to a
scalar ``str.find`` oracle under blank lines, trailing delimiters,
predicates and non-ASCII input.

Eligibility: dialects with ``supports_vectorized`` (plain delimited, TSV,
fixed-width).  Quoted CSV needs a quote state machine and JSON-lines has
no field spans; both keep the adapter route.  The kernel also declines —
returning ``None`` so the dispatcher falls back to the adapter route — on
ragged rows, for non-ASCII fixed-width content (field widths are
characters, not bytes), for non-ASCII delimiters and for invalid UTF-8.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import FlatFileError
from repro.flatfile.dialects import (
    DelimitedAdapter,
    FixedWidthAdapter,
    FormatAdapter,
    TsvAdapter,
)
from repro.flatfile.positions import PositionalMap
from repro.flatfile.tokenizer import (
    FieldSpans,
    RawPredicate,
    TokenizeResult,
    TokenizerStats,
)

_NEWLINE = 0x0A
_CARRIAGE = 0x0D

#: Bytes framed at a time.  A block's two boolean masks (delimiter and
#: newline) take 512 KiB, so they stay in a 2 MB L2 cache while the block
#: is scanned, and no mask as big as the file is ever built.
_FRAME_BLOCK = 1 << 18


def _frame_rows(
    buf: np.ndarray, skip_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Byte-offset row bounds: newline framing, CRLF trim, blanks skipped.

    The vectorized twin of :func:`repro.flatfile.dialects.
    newline_row_bounds` (same semantics, byte offsets instead of character
    offsets).
    """
    nl = np.nonzero(buf == _NEWLINE)[0]
    starts = np.empty(len(nl) + 1, dtype=np.int64)
    starts[0] = 0
    starts[1:] = nl + 1
    ends = np.empty(len(nl) + 1, dtype=np.int64)
    ends[:-1] = nl
    ends[-1] = len(buf)
    nonempty = np.nonzero(ends > starts)[0]
    has_cr = np.zeros(len(ends), dtype=np.int64)
    has_cr[nonempty] = (buf[ends[nonempty] - 1] == _CARRIAGE).astype(np.int64)
    ends = ends - has_cr
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]
    if skip_rows:
        starts, ends = starts[skip_rows:], ends[skip_rows:]
    return starts, ends


def _frame_blocks(
    data: bytes, buf: np.ndarray, delim: int, ncols: int, skip_rows: int
) -> np.ndarray | None:
    """The ``(nrows, ncols + 1)`` byte frame of a regular file, or ``None``.

    The file is regular when it ends in a newline, no line ends in CR,
    no line is empty and every line holds exactly ``ncols - 1``
    delimiters; then each line's separators are its delimiters, then its
    newline, and one past each is the next field's start.  The frame is
    filled block by block (:data:`_FRAME_BLOCK` bytes, cut after a
    newline; a longer line is one block), with every line checked,
    header lines included.  Anything else declines to
    :func:`_frame_fallback`.
    """
    if not len(buf) or buf[-1] != _NEWLINE:
        return None
    # Two reused masks; the first pass cuts the blocks and counts their
    # lines, so the frame is allocated once, at its size.
    masks = np.empty((2, _FRAME_BLOCK), dtype=bool)
    blocks = []
    lo = 0
    while lo < len(buf):
        hi = data.rfind(b"\n", lo, lo + _FRAME_BLOCK) + 1
        if hi == 0:  # one line longer than a block
            hi = data.find(b"\n", lo + _FRAME_BLOCK) + 1
        if hi - lo > masks.shape[1]:
            masks = np.empty((2, hi - lo), dtype=bool)
        is_nl = np.equal(buf[lo:hi], _NEWLINE, out=masks[1, : hi - lo])
        blocks.append((lo, hi, int(np.count_nonzero(is_nl))))
        lo = hi
    nlines = sum(rows for _, _, rows in blocks)
    frame = np.empty((max(nlines - skip_rows, 0), ncols + 1), dtype=np.int64)
    line = 0  # lines framed so far
    for lo, hi, rows in blocks:
        block = buf[lo:hi]
        is_sep, is_nl = masks[:, : hi - lo]
        np.equal(block, delim, out=is_sep)
        np.equal(block, _NEWLINE, out=is_nl)
        seps = np.flatnonzero(np.logical_or(is_sep, is_nl, out=is_sep))
        if len(seps) != rows * ncols:
            return None
        grid = seps.reshape(rows, ncols)
        ends = grid[:, -1]
        if not bool(is_nl[ends].all()):
            return None
        starts = np.empty(rows, dtype=np.int64)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        if bool((ends == starts).any()) or bool((block[ends - 1] == _CARRIAGE).any()):
            return None  # a blank line (one column) or a CRLF line end
        first = min(max(skip_rows - line, 0), rows)  # header lines here
        if first < rows:
            out = frame[line + first - skip_rows : line + rows - skip_rows]
            np.add(starts[first:], lo, out=out[:, 0])
            np.add(grid[first:], lo + 1, out=out[:, 1:])
        line += rows
    return frame


def _frame_fallback(
    buf: np.ndarray, adapter: FormatAdapter, delimiter: str | None, ncols: int, skip_rows: int
) -> np.ndarray | None:
    """The byte frame of any other file, from its newline rows, or
    ``None`` when a row is ragged (the fallback loop raises or
    tolerates).  The last column is each row's end plus ``adapter.sep``
    (past the input when the last line has no newline)."""
    row_starts, row_ends = _frame_rows(buf, skip_rows)
    nrows = len(row_starts)
    frame = np.empty((nrows, ncols + 1), dtype=np.int64)
    if delimiter is None:
        assert isinstance(adapter, FixedWidthAdapter)
        widths = np.asarray(adapter.widths, dtype=np.int64)
        if nrows and not bool(((row_ends - row_starts) == int(widths.sum())).all()):
            return None  # some row has the wrong width
        cum = np.concatenate(([0], np.cumsum(widths)))
        np.add(row_starts[:, None], cum[:-1], out=frame[:, :ncols])
    else:
        d_pos = np.flatnonzero(buf == ord(delimiter))
        lo = np.searchsorted(d_pos, row_starts)
        hi = np.searchsorted(d_pos, row_ends)
        if nrows and not bool((hi - lo == ncols - 1).all()):
            return None  # ragged rows
        frame[:, 0] = row_starts
        for c in range(1, ncols):
            frame[:, c] = d_pos[lo + (c - 1)] + 1
    frame[:, ncols] = row_ends + adapter.sep
    return frame


def tokenize_vectorized(
    data: bytes,
    adapter: FormatAdapter,
    ncols: int,
    needed: Sequence[int],
    *,
    predicates: dict[int, RawPredicate] | None = None,
    positional_map: PositionalMap | None = None,
    learn: bool = True,
    skip_rows: int = 0,
) -> TokenizeResult | None:
    """One bulk tokenization pass, or ``None`` when the adapter route must run.

    Fields, row ids and errors are exactly those of the adapter route
    (:func:`~repro.flatfile.tokenizer.tokenize_dialect`); see the module
    docstring for when the kernel declines instead of risking divergence.
    ``positional_map`` is only written, never read.
    """
    if ncols <= 0:
        raise FlatFileError(f"ncols must be positive, got {ncols}")
    wanted = sorted(set(needed))
    if not wanted:
        raise FlatFileError("tokenize_vectorized called with no needed columns")
    if wanted[0] < 0 or wanted[-1] >= ncols:
        raise FlatFileError(
            f"needed columns {wanted} out of range for {ncols} columns"
        )
    predicates = predicates or {}
    for col in predicates:
        if col not in wanted:
            raise FlatFileError(f"predicate on column {col} which is not tokenized")
    learn = learn and positional_map is not None

    # ------------------------------------------------------------ dispatch
    if isinstance(adapter, DelimitedAdapter):
        delimiter: str | None = adapter.delimiter
    elif isinstance(adapter, TsvAdapter):
        delimiter = "\t"
    elif isinstance(adapter, FixedWidthAdapter):
        delimiter = None
    else:
        return None
    if delimiter is not None and ord(delimiter) > 127:
        return None

    buf = np.frombuffer(data, dtype=np.uint8)
    ascii_only = not len(buf) or bool(buf.max() < 128)
    if delimiter is None and not ascii_only:
        return None  # fixed-width field widths are characters, not bytes
    if not ascii_only:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            # Invalid UTF-8: the fallback's decode raises the taxonomy error.
            return None
    nul_free = not len(buf) or bool(buf.min() > 0)

    # ------------------------------------------------------------- framing
    # frame[:, c] is field c's byte start, frame[:, c + 1] - sep its end.
    frame = None
    if delimiter is not None:
        frame = _frame_blocks(data, buf, ord(delimiter), ncols, skip_rows)
    if frame is None:
        frame = _frame_fallback(buf, adapter, delimiter, ncols, skip_rows)
        if frame is None:
            return None
    nrows, sep = len(frame), adapter.sep

    # ------------------------------------- column sweep: stats + predicates
    stats = TokenizerStats()
    stats.rows_scanned = nrows
    # The framing pass reads everything, once; a character is a byte
    # that does not continue a UTF-8 sequence.
    stats.chars_scanned = len(buf)
    if not ascii_only:
        stats.chars_scanned -= int(np.count_nonzero((buf & 0xC0) == 0x80))
    candidates = np.arange(nrows, dtype=np.int64)
    pred_values: dict[int, FieldSpans] = {}
    pred_rows: dict[int, np.ndarray] = {}

    def extract(col: int, rows: np.ndarray) -> FieldSpans:
        if len(rows) == nrows:
            starts = frame[:, col]
            lengths = frame[:, col + 1] - starts
        else:
            starts = frame[rows, col]
            lengths = frame[rows, col + 1] - starts
        lengths -= sep
        stats.fields_tokenized += len(rows)
        return FieldSpans(
            data,
            starts,
            lengths,
            adapter.decode_many,
            ascii_only=ascii_only,
            nul_free=nul_free,
        )

    for col in wanted:
        pred = predicates.get(col)
        if pred is not None:
            values = extract(col, candidates)
            keep = pred.mask(values)
            pred_values[col] = values
            pred_rows[col] = candidates
            failed = int(len(keep) - keep.sum())
            if failed:
                stats.rows_abandoned += failed
                candidates = candidates[keep]

    survivors = candidates
    stats.rows_emitted = len(survivors)

    # ------------------------------------------------------------ learning
    # The framing located every column of every row, whatever the pass
    # needed or its predicates abandoned: offer the map the whole frame,
    # one row per file row (see PositionalMap).
    if learn and positional_map is not None:
        positional_map.record_nrows(nrows)
        if len(positional_map.known_columns()) < ncols:
            positional_map.record_frame(frame, sep=sep)

    # -------------------------------------------------------------- output
    out_fields: dict[int, FieldSpans] = {}
    for col in wanted:
        if col in pred_values:
            values, rows = pred_values[col], pred_rows[col]
            if len(rows) != len(survivors):
                values = values[np.searchsorted(rows, survivors)]
            out_fields[col] = values
        else:
            out_fields[col] = extract(col, survivors)

    return TokenizeResult(
        fields=out_fields,
        row_ids=survivors,
        stats=stats,
    )
