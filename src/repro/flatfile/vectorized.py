"""Vectorized bulk-tokenization kernel: the tokenize hot path in NumPy.

The paper's selective tokenizer walks each row field by field, one
``str.find`` per delimiter; its cost model (tokenizing fewer columns is
cheaper) is what the experiments rely on, but from Python every byte
would be touched by the interpreter.  This kernel performs the *same*
pass over the raw bytes in bulk:

1. **one separator pass** — ``np.frombuffer`` over the raw bytes and
   one ``np.flatnonzero`` of every delimiter *or* newline byte.  Both are
   ASCII bytes and UTF-8 never embeds ASCII values in multi-byte
   sequences, so byte scanning is safe for any UTF-8 content.  When the
   file is regular — it ends in a newline, no line ends in CR, no line
   is blank and every line holds ``ncols - 1`` delimiters — those
   positions reshape to a ``(nrows, ncols)`` grid whose last column is
   the newlines, and that grid *is* the frame: column ``c`` runs from
   ``grid[:, c - 1] + 1`` to ``grid[:, c]`` (the bulk framing of
   Mühlbauer et al., "Instant Loading for Main Memory Databases",
   PVLDB 2013);
2. **the fallback frame** — anything else (blank lines, CRLF, a missing
   final newline, ragged rows, fixed-width input) is framed by newline
   rows, then by the fixed widths or by per-row delimiter counts from
   two ``searchsorted`` calls; a ragged row (a delimiter count other
   than ``ncols - 1``, or the wrong width) makes the kernel decline,
   and :func:`~repro.flatfile.tokenizer.tokenize_bytes` falls back to
   the adapter's field loop (:func:`~repro.flatfile.tokenizer.
   tokenize_dialect`) *for that input only*, which frames rows, learns
   spans and raises "fewer than N fields" the same way;
3. **columnar field extraction** — fields are materialized only for the
   needed columns; no other column is ever sliced, and pushdown
   predicates are evaluated column-by-column over the still-candidate
   rows, each as one bulk call (``pred.mask``: one parse of the
   candidate array, one range mask — never a Python call per value), so
   a failing early column spares every later column's slices.  On
   pure-ASCII input the fields are ``S`` byte arrays (the gather's
   packed matrix, never cast to ``str``), so the predicate mask and the
   parser cast bytes straight to numbers; non-ASCII input is decoded to
   ``U`` once, in bulk;
4. **the whole frame is learned** — either frame holds every column of
   every row, so the positional map is offered all of them at once
   (:meth:`~repro.flatfile.positions.PositionalMap.record_frame`),
   whatever the pass needed or its predicates abandoned.  A later
   query on any column is then a window read cut by the map
   (:mod:`repro.core.loader`), not another framing pass.

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

from typing import Any, Sequence

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
    RawPredicate,
    TokenizeResult,
    TokenizerStats,
    bulk_extract_fields,
)

_NEWLINE = 0x0A
_CARRIAGE = 0x0D


def _frame_rows(
    buf: np.ndarray, skip_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Byte-offset row bounds: newline framing, CRLF trim, blanks skipped.

    The vectorized twin of :func:`repro.flatfile.dialects.
    newline_row_bounds` (same semantics, byte offsets instead of character
    offsets — identical for the pure-ASCII fast case, converted by the
    caller otherwise).
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


def _frame_grid(
    buf: np.ndarray, delim: int, ncols: int, skip_rows: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Row starts and the ``(nrows, ncols)`` separator grid, or ``None``.

    One pass locates every delimiter and newline byte.  When the file is
    regular — it ends in a newline, no line ends in CR, no line is empty
    and every line holds exactly ``ncols - 1`` delimiters — those
    positions reshape to one grid row per line: its delimiters, then its
    newline.  Anything else declines to :func:`_frame_rows`.
    """
    if not len(buf) or buf[-1] != _NEWLINE:
        return None
    seps = np.flatnonzero((buf == delim) | (buf == _NEWLINE))
    if len(seps) % ncols:
        return None
    is_nl = buf[seps] == _NEWLINE
    grid = seps.reshape(-1, ncols)
    if int(np.count_nonzero(is_nl)) != len(grid) or not is_nl[ncols - 1 :: ncols].all():
        return None
    ends = grid[:, -1]
    row_starts = np.empty(len(grid), dtype=np.int64)
    row_starts[0] = 0
    row_starts[1:] = ends[:-1] + 1
    if bool((ends == row_starts).any()) or bool((buf[ends - 1] == _CARRIAGE).any()):
        return None  # a blank line (one column) or a CRLF line end
    return row_starts[skip_rows:], grid[skip_rows:]


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
    ascii_only = not bool((buf > 127).any()) if len(buf) else True
    if delimiter is None and not ascii_only:
        return None  # fixed-width field widths are characters, not bytes
    if not ascii_only:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            # Invalid UTF-8: the fallback's decode raises the taxonomy
            # error (and the char geometry the kernel would learn from
            # raw continuation bytes would be fiction).
            return None
    nul_free = not bool((buf == 0).any()) if len(buf) else True

    # ------------------------------------------------------------- framing
    framed = None
    if delimiter is not None:
        framed = _frame_grid(buf, ord(delimiter), ncols, skip_rows)
    grid = None
    if framed is not None:
        row_starts, grid = framed
    else:
        row_starts, row_ends = _frame_rows(buf, skip_rows)
    nrows = len(row_starts)
    if ascii_only:
        nchars = len(buf)

        def to_chars(a: np.ndarray) -> np.ndarray:
            return a

    else:
        pad = np.zeros(len(buf) + 1, dtype=np.int64)
        np.cumsum((buf & 0xC0) == 0x80, dtype=np.int64, out=pad[1:])
        nchars = len(buf) - int(pad[-1])

        def to_chars(a: np.ndarray) -> np.ndarray:
            return a - pad[a]

    # ------------------------------------------ separator / ragged detection
    if grid is not None:

        def col_bounds(c: int) -> tuple[np.ndarray, np.ndarray]:
            return (row_starts if c == 0 else grid[:, c - 1] + 1), grid[:, c]

    elif delimiter is None:
        assert isinstance(adapter, FixedWidthAdapter)
        widths = np.asarray(adapter.widths, dtype=np.int64)
        if nrows and not bool(((row_ends - row_starts) == int(widths.sum())).all()):
            return None  # some row has the wrong width: the fallback raises
        cum = np.concatenate(([0], np.cumsum(widths)))

        def col_bounds(c: int) -> tuple[np.ndarray, np.ndarray]:
            return row_starts + int(cum[c]), row_starts + int(cum[c + 1])

    else:
        d_pos = np.nonzero(buf == ord(delimiter))[0]
        lo = np.searchsorted(d_pos, row_starts)
        hi = np.searchsorted(d_pos, row_ends)
        if nrows and not bool((hi - lo == ncols - 1).all()):
            return None  # ragged rows: the fallback raises or tolerates

        def col_bounds(c: int) -> tuple[np.ndarray, np.ndarray]:
            start = row_starts if c == 0 else d_pos[lo + (c - 1)] + 1
            end = row_ends if c == ncols - 1 else d_pos[lo + c]
            return start, end

    # ------------------------------------- column sweep: stats + predicates
    stats = TokenizerStats()
    stats.rows_scanned = nrows
    stats.chars_scanned = nchars  # the framing pass reads everything, once
    candidates = np.arange(nrows, dtype=np.int64)
    pred_values: dict[int, np.ndarray] = {}
    pred_rows: dict[int, np.ndarray] = {}
    bounds: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def extract(col: int, rows: np.ndarray) -> np.ndarray:
        fstart, fend = bounds[col]
        fstart, fend = fstart[rows], fend[rows]
        stats.fields_tokenized += len(rows)
        values = bulk_extract_fields(
            data,
            fstart,
            fend - fstart,
            buf=buf,
            char_lengths=to_chars(fend) - to_chars(fstart),
            ascii_only=ascii_only,
            nul_free=nul_free,
        )
        return adapter.decode_many(values)

    for col in wanted:
        bounds[col] = col_bounds(col)
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
            frame = np.empty((nrows, ncols + 1), dtype=np.int64)
            if grid is not None:
                # Field c > 0 starts one past separator c - 1, and one past
                # the newline is the last field's end plus its separator.
                frame[:, 0] = row_starts
                np.add(grid, 1, out=frame[:, 1:])
                frame = to_chars(frame)
            else:
                for c in range(ncols):
                    frame[:, c] = col_bounds(c)[0]
                # The last end may be the end of the input: add the
                # separator after converting, past the last character.
                frame[:, ncols] = col_bounds(ncols - 1)[1]
                frame = to_chars(frame)
                frame[:, ncols] += adapter.sep
            positional_map.record_frame(frame, sep=adapter.sep)
    if positional_map is not None:
        positional_map.record_text_geometry(nbytes=len(data), nchars=nchars)

    # --------------------------------------------------------- materialize
    # NumPy field arrays (S on ASCII input, U otherwise); see TokenizeResult.
    out_fields: dict[int, Any] = {}
    for col in wanted:
        if col in pred_values:
            values, rows = pred_values[col], pred_rows[col]
            if len(rows) != len(survivors):
                sel = np.searchsorted(rows, survivors)
                values = values[sel]
            out_fields[col] = values
        else:
            out_fields[col] = extract(col, survivors)

    return TokenizeResult(
        fields=out_fields,
        row_ids=survivors,
        stats=stats,
    )
