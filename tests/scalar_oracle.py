"""Scalar reference tokenizers: the differential oracle of the bulk kernel.

:func:`tokenize_columns` is the paper's selective tokenizer written the
obvious way: one ``str.find`` per delimiter, row by row, with early abort,
per-value pushdown predicates and positional-map anchor jumps.  Its cost
model — work proportional to the characters actually scanned — is the one
the kernel's :class:`~repro.flatfile.tokenizer.TokenizerStats` counters
must reproduce, so the property suites diff the shipped route
(:func:`~repro.flatfile.tokenizer.tokenize_bytes`) against it.

:func:`scalar_tokenize_bytes` is the reference for ``tokenize_bytes``
itself: decode, then this walk for plain delimited input and the
dialect-generic loop for every other dialect.
:func:`scalar_tokenize_framed` adds the kernel's whole-frame learning
to it, for suites that compare engines query by query.
:func:`split_rows` is plain ground truth.  :func:`field_texts` is the
one way the suites turn a route's field batch into ``str`` before
comparing it.
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
    early_abort: bool = True,
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
    early_abort:
        Stop tokenizing each row after the last needed column (trick 1).
        Disabling this tokenizes every field of every row, which is the
        ablation baseline.
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
                anchors[col] = hit

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
        if not early_abort:
            # Ablation mode: tokenize the remainder of the row too.
            while cur_col < ncols - 1:
                nxt = find(delimiter, pos, row_end)
                if nxt == -1:
                    break
                stats.chars_scanned += nxt + 1 - pos
                stats.fields_tokenized += 1
                pos = nxt + 1
                cur_col += 1
            stats.chars_scanned += max(0, row_end - pos)
            if cur_col == ncols - 1:
                stats.fields_tokenized += 1
        for col, value in extracted.items():
            out_fields[col].append(value)
        out_rows.append(row_idx)
        stats.rows_emitted += 1

    if learn and positional_map is not None:
        for col, offsets in learned.items():
            if len(offsets) == nrows and not positional_map.knows_column(col):
                positional_map.record_field_offsets(
                    col,
                    np.asarray(offsets, dtype=np.int64),
                    np.asarray(learned_ends[col], dtype=np.int64),
                    sep=1,
                )

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

    Decodes through :func:`~repro.flatfile.dialects.as_text`, the engine's
    own ``S`` -> ``str`` step.  With ``ascii_input``, a NumPy batch must
    be ``S`` bytes — the parser's no-``str`` fast path — or an object
    batch of ``str`` only (wide or NUL-repaired fields), never ``U`` and
    never a mix of ``bytes`` and ``str``.
    """
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
    early_abort: bool = True,
    predicates: dict[int, RawPredicate] | None = None,
    positional_map: PositionalMap | None = None,
    learn: bool = True,
    skip_rows: int = 0,
    source: object = "raw bytes",
    offset: int = 0,
) -> TokenizeResult:
    """``tokenize_bytes`` without the kernel: decode, then walk."""
    text = decode_utf8(data, source, offset)
    if positional_map is not None:
        positional_map.record_text_geometry(nbytes=len(data), nchars=len(text))
    kwargs = dict(
        early_abort=early_abort,
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
    ``tokenize_bytes`` and compare counters query by query: both routes
    then know the same columns and take the same later routes.
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
        for col in full.known_columns():
            pmap.record_field_offsets(col, *full.slices_for(col), sep=adapter.sep)
    return result


def split_rows(text: str, delimiter: str = ",") -> list[list[str]]:
    """Tokenize *everything*: ground truth for plain delimited text."""
    rows: list[list[str]] = []
    for line in text.split("\n"):
        line = line.rstrip("\r")
        if line:
            rows.append(line.split(delimiter))
    return rows
