"""Scalar reference tokenizers: the differential oracle of the bulk kernel.

:func:`tokenize_columns` is the paper's selective tokenizer written the
obvious way: one ``str.find`` per delimiter, row by row, with early abort,
per-value pushdown predicates and positional-map anchor jumps.  It is the
reference for answers, learned maps and errors: the property suites diff
the shipped route (:func:`~repro.flatfile.tokenizer.tokenize_bytes`)
against it on fields, row ids, the row counters, predicate calls and
whether the pass raised.  Its ``fields_tokenized``/``chars_scanned``
count the walk's own work, which the kernel does not reproduce.

:func:`scalar_tokenize_bytes` is the reference for ``tokenize_bytes``
itself: decode, then this walk for plain delimited input and the
dialect-generic loop for every other dialect.
:func:`scalar_tokenize_framed` adds the kernel's whole-frame learning
to it, for suites that compare engines query by query.
:func:`split_rows` is plain ground truth.  :func:`field_texts` is the
one way the suites turn a route's field batch into ``str`` before
comparing it.  :func:`coalesce_ranges` is the reference for the windows
``FlatFile.read_windows`` accounts: any ranges, sorted and merged the
obvious way.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import FlatFileError
from repro.flatfile.dialects import (
    DelimitedAdapter,
    FormatAdapter,
    as_text,
    newline_row_bounds,
)
from repro.flatfile.files import decode_utf8
from repro.flatfile.positions import PositionalMap
from repro.flatfile.tokenizer import (
    FieldSpans,
    RawPredicate,
    TokenizeResult,
    TokenizerStats,
    tokenize_dialect,
)


def tokenize_columns(
    text: str,
    ncols: int,
    needed: Sequence[int],
    delimiter: str = ",",
    *,
    predicates: dict[int, RawPredicate] | None = None,
    positional_map: PositionalMap | None = None,
    learn: bool = True,
    skip_rows: int = 0,
) -> TokenizeResult:
    """Tokenize only the ``needed`` columns out of CSV ``text``.

    Parameters
    ----------
    text:
        Full file content (or one horizontal portion of it).
    ncols:
        Total number of columns each row is expected to have.  Rows with
        fewer fields than the tokenizer needs raise :class:`FlatFileError`.
    needed:
        Column indices to extract, in any order; duplicates are ignored.
    predicates:
        Optional pushdown predicates per column index (trick 2).  A row is
        emitted only if every predicate returns True; evaluation happens in
        file order, so a failing early column spares all later work in
        that row.
    positional_map:
        Optional map to exploit and (when ``learn``) feed (trick 3).
    skip_rows:
        Number of leading data rows to skip (used to skip header lines).
    """
    if ncols <= 0:
        raise FlatFileError(f"ncols must be positive, got {ncols}")
    wanted = sorted(set(needed))
    if not wanted:
        raise FlatFileError("tokenize_columns called with no needed columns")
    if wanted[0] < 0 or wanted[-1] >= ncols:
        raise FlatFileError(f"needed columns {wanted} out of range for {ncols} columns")
    predicates = predicates or {}
    for col in predicates:
        if col not in wanted:
            raise FlatFileError(f"predicate on column {col} which is not tokenized")
    learn = learn and positional_map is not None

    stats = TokenizerStats()
    row_starts, row_ends = newline_row_bounds(text)
    if skip_rows:
        row_starts = row_starts[skip_rows:]
        row_ends = row_ends[skip_rows:]
    nrows = len(row_starts)
    stats.rows_scanned = nrows
    stats.chars_scanned += len(text)  # the pass over row boundaries

    if learn and positional_map is not None:
        positional_map.record_nrows(nrows)

    # The map holds byte offsets and the walk runs over characters: one
    # char -> byte table (``c2b[i]`` is character ``i``'s byte offset,
    # ``c2b[len(text)]`` the text's byte size) converts either way.
    c2b = None
    if not text.isascii():
        buf = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        c2b = np.append(np.flatnonzero((buf & 0xC0) != 0x80), len(buf))

    # Choose, per needed column, the best anchor the map offers.  Anchors
    # are only usable when no pushdown predicate sits between anchor and
    # target on a *different* tokenization route; since we tokenize columns
    # left to right below, an anchor simply replaces scanning from the
    # previous needed column when it is closer.
    anchors: dict[int, tuple[int, np.ndarray]] = {}
    if positional_map is not None:
        for col in wanted:
            hit = anchor_for(positional_map, col)
            if hit is not None:
                anchor_col, offsets = hit
                if c2b is not None:
                    offsets = np.searchsorted(c2b, offsets)
                anchors[col] = (anchor_col, offsets)

    find = text.find
    out_fields: dict[int, list[str]] = {col: [] for col in wanted}
    out_rows: list[int] = []
    last_needed = wanted[-1]
    # Per-column offset collection for learning (only when the pass visits
    # every row unconditionally — predicate-abandoned rows still have their
    # earlier fields visited, so offsets collected before the failing
    # predicate remain valid for all rows).  Columns merely scanned *over*
    # on the way to a needed column are learned too: their delimiters are
    # located anyway, and remembering them lets a later query on those
    # columns take the selective-read fast path.
    learn_cols = range(min(last_needed + 1, ncols)) if learn else ()
    learned: dict[int, list[int]] = {col: [] for col in learn_cols}
    learned_ends: dict[int, list[int]] = {col: [] for col in learn_cols}

    for row_idx in range(nrows):
        row_start = int(row_starts[row_idx])
        row_end = int(row_ends[row_idx])
        pos = row_start
        cur_col = 0
        qualified = True
        extracted: dict[int, str] = {}
        for col in wanted:
            anchor = anchors.get(col)
            if anchor is not None:
                anchor_col, anchor_offsets = anchor
                if anchor_col >= cur_col:
                    target = int(anchor_offsets[row_idx])
                    if target >= pos:
                        pos = target
                        cur_col = anchor_col
            # scan forward from (cur_col, pos) to the start of `col`
            while cur_col < col:
                nxt = find(delimiter, pos, row_end)
                if nxt == -1:
                    raise FlatFileError(
                        f"row {row_idx} has fewer than {col + 1} fields"
                    )
                if learn and len(learned[cur_col]) == row_idx:
                    learned[cur_col].append(pos)
                    learned_ends[cur_col].append(nxt)
                stats.chars_scanned += nxt + 1 - pos
                stats.fields_tokenized += 1
                pos = nxt + 1
                cur_col += 1
            fend = find(delimiter, pos, row_end)
            if fend == -1:
                if cur_col != ncols - 1 and col != ncols - 1:
                    raise FlatFileError(
                        f"row {row_idx} has fewer than {ncols} fields"
                    )
                fend = row_end
            if learn and len(learned[col]) == row_idx:
                learned[col].append(pos)
                learned_ends[col].append(fend)
            value = text[pos:fend]
            stats.chars_scanned += fend - pos
            stats.fields_tokenized += 1
            extracted[col] = value
            pred = predicates.get(col)
            if pred is not None and not pred(value):
                qualified = False
                stats.rows_abandoned += 1
                break
            # stay positioned after this field for the next needed column
            if fend < row_end:
                pos = fend + 1
                cur_col = col + 1
            else:
                pos = row_end
                cur_col = ncols
        if not qualified:
            continue
        for col, value in extracted.items():
            out_fields[col].append(value)
        out_rows.append(row_idx)
        stats.rows_emitted += 1

    if learn and positional_map is not None:
        # The known prefix, extended by every column spanned in all rows
        # right of it, as one frame.
        known = len(positional_map.known_columns())
        width = known
        while width in learned and len(learned[width]) == nrows:
            width += 1
        if width > known:
            walked = [learned[c] for c in range(known, width)]
            walked = np.column_stack(walked + [learned_ends[width - 1]]).astype(np.int64)
            if c2b is not None:
                walked = c2b[walked]
            walked[:, -1] += 1  # the last field's end plus its separator
            bounds = [positional_map.slices_for(c)[0] for c in range(known)]
            positional_map.record_frame(np.column_stack(bounds + [walked]), sep=1)

    return TokenizeResult(
        fields=out_fields,
        row_ids=np.asarray(out_rows, dtype=np.int64),
        stats=stats,
    )


def anchor_for(pmap: PositionalMap, col: int) -> tuple[int, np.ndarray] | None:
    """Best starting point for locating ``col`` in every row.

    Returns ``(anchor_col, offsets)`` where ``anchor_col`` is the largest
    known column ``<= col``, or ``None`` when no such column is known
    (the pass then starts from each row's start, as column ``0`` would).
    """
    candidates = [c for c in pmap.known_columns() if c <= col]
    if candidates:
        best = max(candidates)
        return best, pmap.slices_for(best)[0]
    return None


def field_texts(values, *, ascii_input: bool = False) -> list[str]:
    """A route's field batch as a list of ``str``, for comparing routes.

    Spans (:class:`~repro.flatfile.tokenizer.FieldSpans`) are cut out
    first, as the parser would cut them, then decoded through
    :func:`~repro.flatfile.dialects.as_text`, the engine's own ``S`` ->
    ``str`` step.  With ``ascii_input``, a NumPy batch must be ``S``
    bytes — the parser's no-``str`` fast path — or an object batch of
    ``str`` only (wide or NUL-repaired fields), never ``U`` and never a
    mix of ``bytes`` and ``str``.
    """
    if isinstance(values, FieldSpans):
        values = values.values()
    if ascii_input and isinstance(values, np.ndarray):
        if values.dtype == object:
            assert all(isinstance(v, str) for v in values), values
        else:
            assert values.dtype.kind == "S", f"ASCII input gave {values.dtype}"
    return [str(v) for v in as_text(values)]


def scalar_tokenize_bytes(
    data: bytes,
    adapter: FormatAdapter,
    ncols: int,
    needed: Sequence[int],
    *,
    predicates: dict[int, RawPredicate] | None = None,
    positional_map: PositionalMap | None = None,
    learn: bool = True,
    skip_rows: int = 0,
    source: object = "raw bytes",
    offset: int = 0,
) -> TokenizeResult:
    """``tokenize_bytes`` without the kernel: decode, then walk."""
    text = decode_utf8(data, source, offset)
    kwargs = dict(
        predicates=predicates,
        positional_map=positional_map,
        learn=learn,
        skip_rows=skip_rows,
    )
    if isinstance(adapter, DelimitedAdapter):
        return tokenize_columns(text, ncols, needed, adapter.delimiter, **kwargs)
    return tokenize_dialect(text, adapter, ncols, needed, **kwargs)


def scalar_tokenize_framed(
    data: bytes,
    adapter: FormatAdapter,
    ncols: int,
    needed: Sequence[int],
    **kwargs,
) -> TokenizeResult:
    """:func:`scalar_tokenize_bytes`, then the rest of the frame learned.

    The kernel records every column's spans on any pass it frames; the
    walk records a prefix.  A second, uncounted walk over every column
    offers the map the rest, so engine-level suites can swap this in for
    ``tokenize_bytes`` and compare answers and read counters query by
    query: both routes then know the same columns and take the same later
    routes.
    """
    result = scalar_tokenize_bytes(data, adapter, ncols, needed, **kwargs)
    pmap = kwargs.get("positional_map")
    if pmap is not None and kwargs.get("learn", True):
        full = PositionalMap()
        scalar_tokenize_bytes(
            data,
            adapter,
            ncols,
            range(ncols),
            positional_map=full,
            skip_rows=kwargs.get("skip_rows", 0),
        )
        if full.frame is not None:
            pmap.record_frame(full.frame, sep=adapter.sep)
    return result


def split_rows(text: str, delimiter: str = ",") -> list[list[str]]:
    """Tokenize *everything*: ground truth for plain delimited text."""
    rows: list[list[str]] = []
    for line in text.split("\n"):
        line = line.rstrip("\r")
        if line:
            rows.append(line.split(delimiter))
    return rows


def coalesce_ranges(
    starts: np.ndarray, ends: np.ndarray, max_gap: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Merge byte ranges ``[starts[i], ends[i])`` into sorted, disjoint
    windows: a range at most ``max_gap`` bytes past the running window's
    end joins it.  The ranges may be unsorted, overlapping or nested."""
    windows: list[list[int]] = []
    for s, e in sorted(zip(np.asarray(starts).tolist(), np.asarray(ends).tolist())):
        if windows and s <= windows[-1][1] + max_gap:
            windows[-1][1] = max(windows[-1][1], e)
        else:
            windows.append([s, e])
    return (
        np.array([w[0] for w in windows], dtype=np.int64),
        np.array([w[1] for w in windows], dtype=np.int64),
    )
