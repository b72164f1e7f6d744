"""Selective CSV tokenization (paper section 3.2).

The adaptive loading operators never split whole rows when they do not have
to.  The tokenizer implemented here mirrors the three tricks the paper's
MonetDB operators use:

1. **Early abort** — while tokenizing a row, stop as soon as the last
   column the query needs has been located; fields to the right of it are
   never touched.
2. **Predicate pushdown** — when the WHERE clause is pushed into the load,
   each needed field is parsed and tested the moment it is tokenized, and
   the rest of the row is abandoned as soon as one conjunct fails.
3. **Learning** — every located row start and field start is offered to the
   file's :class:`~repro.flatfile.positions.PositionalMap`, and the map's
   existing knowledge is used to jump directly to (or near) a needed field
   instead of scanning from the start of the row.

Two routes implement those tricks:

* :func:`tokenize_columns` — the optimized fast path for plain delimited
  files.  It works over the file content as one Python string and uses
  ``str.find`` to locate delimiters, so its cost is proportional to the
  characters it actually scans — which is exactly the cost model the
  paper's experiments rely on (tokenizing fewer columns is genuinely
  cheaper).  It is only valid for dialects whose fields can never contain
  the delimiter or a newline (``FormatAdapter.supports_find_jump``).
* :func:`tokenize_dialect` — the dialect-generic route.  It dispatches to
  the fast path when the file's :class:`~repro.flatfile.dialects.
  FormatAdapter` allows it, and otherwise drives the adapter's own row
  framing and lazy field iteration with the same semantics: early abort
  still stops consuming a record after the last needed column, pushdown
  predicates still abandon rows at the first failing conjunct, and field
  spans (where the dialect defines them — quoted CSV and fixed-width do,
  JSON-lines does not) still feed the positional map.

A third route sits *above* both for cold scans over raw bytes:
:func:`tokenize_bytes` dispatches to the NumPy bulk-tokenization kernel
(:mod:`repro.flatfile.vectorized`) for dialects whose rows and fields are
framed by raw ASCII bytes (``FormatAdapter.supports_vectorized``), and
falls back to the scalar routes above — decoding the bytes first — when
the kernel is ineligible or declines (ragged rows, non-ASCII delimiters,
invalid UTF-8, non-ASCII fixed-width content).  A warm positional map
does not send a pass here: the kernel charges the fast path's anchor
jumps itself.  The kernel's outputs, learned offsets and work counters
are exactly the scalar routes'; only the per-byte interpreter cost
disappears.

Quoted fields, escaped separators, JSON records and fixed-width records
are therefore supported through adapters; see :mod:`repro.flatfile.
dialects` for the dialect semantics and capability flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.errors import FlatFileError
from repro.flatfile.dialects import FormatAdapter, newline_row_bounds
from repro.flatfile.positions import PositionalMap


class RawPredicate(Protocol):
    """A pushdown predicate over raw field text: may the row still qualify?

    ``pred(text)`` answers for one field (the scalar routes, row by row),
    ``pred.mask(values)`` for a whole array of fields (the bulk kernel and
    the selective-read route).  Parsing happens inside, so the tokenizer
    stays type-agnostic."""

    def __call__(self, text: str) -> bool: ...

    def mask(self, values: np.ndarray) -> np.ndarray: ...


@dataclass
class TokenizerStats:
    """Work counters for one tokenization pass."""

    rows_scanned: int = 0
    rows_emitted: int = 0
    rows_abandoned: int = 0
    fields_tokenized: int = 0
    chars_scanned: int = 0

    def merge(self, other: "TokenizerStats") -> None:
        self.rows_scanned += other.rows_scanned
        self.rows_emitted += other.rows_emitted
        self.rows_abandoned += other.rows_abandoned
        self.fields_tokenized += other.fields_tokenized
        self.chars_scanned += other.chars_scanned


@dataclass
class TokenizeResult:
    """Output of one selective tokenization pass.

    ``fields[col]`` holds the text of column ``col`` for every emitted
    row, in row order — a plain list from the scalar routes, a NumPy
    string array from the vectorized kernel (downstream typed parsing
    converts whole arrays in bulk).  ``row_ids`` are the 0-based indices
    (within the tokenized range) of the emitted rows; when predicates
    filtered nothing, this is simply ``arange(rows_scanned)``.
    """

    fields: dict[int, Sequence[str]]
    row_ids: np.ndarray
    stats: TokenizerStats = field(default_factory=TokenizerStats)


#: Newline row framing, shared with the dialect layer (kept under its
#: historical private name for in-package callers).
_row_bounds = newline_row_bounds


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
    row_starts, row_ends = _row_bounds(text)
    if skip_rows:
        row_starts = row_starts[skip_rows:]
        row_ends = row_ends[skip_rows:]
    nrows = len(row_starts)
    stats.rows_scanned = nrows
    stats.chars_scanned += len(text)  # the pass over row boundaries

    if learn and positional_map is not None:
        positional_map.record_row_offsets(row_starts)

    # Choose, per needed column, the best anchor the map offers.  Anchors
    # are only usable when no pushdown predicate sits between anchor and
    # target on a *different* tokenization route; since we tokenize columns
    # left to right below, an anchor simply replaces scanning from the
    # previous needed column when it is closer.
    anchors: dict[int, tuple[int, np.ndarray]] = {}
    if positional_map is not None:
        for col in wanted:
            hit = positional_map.anchor_for(col)
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
                )

    return TokenizeResult(
        fields=out_fields,
        row_ids=np.asarray(out_rows, dtype=np.int64),
        stats=stats,
    )


def tokenize_dialect(
    text: str,
    adapter: FormatAdapter,
    ncols: int,
    needed: Sequence[int],
    *,
    early_abort: bool = True,
    predicates: dict[int, RawPredicate] | None = None,
    positional_map: PositionalMap | None = None,
    learn: bool = True,
    skip_rows: int = 0,
) -> TokenizeResult:
    """Tokenize the ``needed`` columns under any :class:`FormatAdapter`.

    Dispatches to :func:`tokenize_columns` when the adapter permits the
    ``str.find`` fast path, and otherwise runs the dialect-generic pass:
    the adapter frames rows and iterates raw fields lazily, fields are
    decoded to their logical values, and — for span-bearing dialects —
    raw-field character spans feed the positional map exactly like the
    fast path's delimiter offsets do.  The returned ``fields`` always
    hold *logical* (decoded) values under every adapter.
    """
    if adapter.supports_find_jump:
        return tokenize_columns(
            text,
            ncols=ncols,
            needed=needed,
            delimiter=adapter.delimiter,
            early_abort=early_abort,
            predicates=predicates,
            positional_map=positional_map,
            learn=learn,
            skip_rows=skip_rows,
        )
    if ncols <= 0:
        raise FlatFileError(f"ncols must be positive, got {ncols}")
    wanted = sorted(set(needed))
    if not wanted:
        raise FlatFileError("tokenize_dialect called with no needed columns")
    if wanted[0] < 0 or wanted[-1] >= ncols:
        raise FlatFileError(f"needed columns {wanted} out of range for {ncols} columns")
    predicates = predicates or {}
    for col in predicates:
        if col not in wanted:
            raise FlatFileError(f"predicate on column {col} which is not tokenized")
    learn = learn and positional_map is not None

    stats = TokenizerStats()
    row_starts, row_ends = adapter.row_bounds(text)
    if skip_rows:
        row_starts = row_starts[skip_rows:]
        row_ends = row_ends[skip_rows:]
    nrows = len(row_starts)
    stats.rows_scanned = nrows
    stats.chars_scanned += len(text)  # the framing pass touches everything

    if learn and positional_map is not None:
        positional_map.record_row_offsets(row_starts)

    spans_ok = adapter.supports_field_spans
    wanted_set = set(wanted)
    last_needed = wanted[-1]
    learn_cols = (
        range(min(last_needed + 1, ncols)) if (learn and spans_ok) else ()
    )
    learned: dict[int, list[int]] = {col: [] for col in learn_cols}
    learned_ends: dict[int, list[int]] = {col: [] for col in learn_cols}
    out_fields: dict[int, list[str]] = {col: [] for col in wanted}
    out_rows: list[int] = []

    for row_idx in range(nrows):
        row_start = int(row_starts[row_idx])
        row = text[row_start : int(row_ends[row_idx])]
        qualified = True
        extracted: dict[int, str] = {}
        nfields = 0
        if spans_ok:
            for fstart, fend, raw in adapter.iter_fields(row):
                col = nfields
                nfields += 1
                if learn and col in learned and len(learned[col]) == row_idx:
                    learned[col].append(row_start + fstart)
                    learned_ends[col].append(row_start + fend)
                stats.fields_tokenized += 1
                stats.chars_scanned += fend - fstart
                if col in wanted_set:
                    value = adapter.decode_field(raw)
                    extracted[col] = value
                    pred = predicates.get(col)
                    if pred is not None and not pred(value):
                        qualified = False
                        stats.rows_abandoned += 1
                        break
                if col >= last_needed:
                    # Fast-path parity: a needed field that runs to the
                    # end of a row with columns still owed means the row
                    # is short, even though no later field is touched.
                    if fend >= len(row) and col < ncols - 1:
                        raise FlatFileError(
                            f"row {row_idx} has fewer than {ncols} fields"
                        )
                    if early_abort:
                        break
        else:
            values = adapter.row_values(row)
            nfields = len(values)
            stats.fields_tokenized += nfields
            if nfields < ncols:
                raise FlatFileError(
                    f"row {row_idx} has fewer than {ncols} fields"
                )
            for col in wanted:
                value = values[col]
                extracted[col] = value
                pred = predicates.get(col)
                if pred is not None and not pred(value):
                    qualified = False
                    stats.rows_abandoned += 1
                    break
        if qualified and nfields <= last_needed:
            raise FlatFileError(
                f"row {row_idx} has fewer than {last_needed + 1} fields"
            )
        if not qualified:
            continue
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
                )

    return TokenizeResult(
        fields=out_fields,
        row_ids=np.asarray(out_rows, dtype=np.int64),
        stats=stats,
    )


def tokenize_bytes(
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
    vectorized: bool = True,
) -> TokenizeResult:
    """Tokenize raw file bytes: vectorized kernel first, scalar fallback.

    The cold-scan entry point.  Dialects framed by raw ASCII bytes
    (``adapter.supports_vectorized``) go through the NumPy bulk kernel,
    which touches each byte once, in bulk, and never even decodes the
    file to a Python string on the pure-ASCII fast path, warm positional
    map or not.  Everything else — and any text the kernel declines
    (ragged rows, non-ASCII delimiters, invalid UTF-8, non-ASCII
    fixed-width) — decodes once and takes the scalar routes, with
    identical outputs, learned offsets and work counters.
    ``vectorized=False`` forces the scalar path (the ablation/differential
    toggle surfaced as ``EngineConfig.vectorized_tokenizer``).
    """
    if vectorized and adapter.supports_vectorized:
        from repro.flatfile.vectorized import tokenize_vectorized

        result = tokenize_vectorized(
            data,
            adapter,
            ncols=ncols,
            needed=needed,
            early_abort=early_abort,
            predicates=predicates,
            positional_map=positional_map,
            learn=learn,
            skip_rows=skip_rows,
        )
        if result is not None:
            return result
    text = data.decode("utf-8")
    if positional_map is not None:
        positional_map.record_text_geometry(nbytes=len(data), nchars=len(text))
    return tokenize_dialect(
        text,
        adapter,
        ncols=ncols,
        needed=needed,
        early_abort=early_abort,
        predicates=predicates,
        positional_map=positional_map,
        learn=learn,
        skip_rows=skip_rows,
    )


#: Above this field width the padded gather matrix (nrows x maxlen) stops
#: paying for itself; fall back to direct per-slice extraction.
_GATHER_MAX_FIELD = 256


def bulk_extract_fields(
    data: bytes,
    starts: np.ndarray,
    lengths: np.ndarray,
    *,
    buf: np.ndarray | None = None,
    char_lengths: np.ndarray | None = None,
    ascii_only: bool | None = None,
    nul_free: bool = False,
) -> np.ndarray:
    """Bulk-slice ``data[starts[i] : starts[i] + lengths[i]]`` into strings.

    The shared extraction core of the selective-read gather and the
    vectorized tokenization kernel: one NumPy fancy-indexing step builds
    a ``(n, maxlen)`` NUL-padded byte matrix viewed as fixed-width
    bytes, converted to strings with a single ``S``→``U`` cast when the
    content is pure ASCII (no per-field decode at all) and with a C-level
    ``np.char.decode`` otherwise.  Fields wider than the padded matrix
    pays for (:data:`_GATHER_MAX_FIELD`) are sliced directly — one
    whole-window ASCII decode when possible, per-field UTF-8 otherwise.

    The fixed-width ``S`` view strips trailing NULs, which would truncate
    a field that legitimately ends in NUL bytes; unless the caller
    vouches the buffer is NUL-free, every decoded length is audited
    against ``char_lengths`` (``lengths`` when not given — byte lengths,
    so multi-byte fields are also caught) and mismatches are re-sliced
    exactly into an object-dtype batch.

    ``buf``/``ascii_only`` let a caller that already scanned the bytes
    (the kernel) skip recomputing them.
    """
    n = len(starts)
    if n == 0:
        return np.empty(0, dtype="U1")
    if (lengths < 0).any():
        raise FlatFileError("gather_fields: negative field length")
    maxlen = int(lengths.max())
    if maxlen == 0:
        return np.zeros(n, dtype="U1")
    if maxlen > _GATHER_MAX_FIELD:
        pairs = list(zip(starts.tolist(), lengths.tolist()))
        # One whole-buffer decode beats per-field decodes only when the
        # fields cover most of the buffer (the selective-read windows);
        # a single wide column of a big file decodes just its slices.
        if ascii_only is not False and 2 * int(lengths.sum()) >= len(data):
            try:
                text = data.decode("ascii")
                return np.array(
                    [text[s : s + ln] for s, ln in pairs], dtype=object
                )
            except UnicodeDecodeError:
                pass
        return np.array(
            [data[s : s + ln].decode("utf-8") for s, ln in pairs],
            dtype=object,
        )
    if buf is None:
        buf = np.frombuffer(data, dtype=np.uint8)
    if len(buf) == 0:
        raise FlatFileError("gather_fields: non-empty fields but empty buffer")
    offs = np.arange(maxlen, dtype=np.int64)
    idx = starts[:, None] + offs[None, :]
    np.clip(idx, 0, max(len(buf) - 1, 0), out=idx)
    chars = buf[idx]
    chars[offs[None, :] >= lengths[:, None]] = 0
    packed = np.ascontiguousarray(chars).view(f"S{maxlen}").ravel()
    if ascii_only is None:
        ascii_only = not bool((chars > 127).any())
    if ascii_only:
        out = packed.astype(f"U{maxlen}")
    else:
        out = np.char.decode(packed, "utf-8")
    if nul_free:
        return out
    expected = lengths if char_lengths is None else char_lengths
    bad = np.nonzero(np.char.str_len(out) != expected)[0]
    if len(bad):
        out = out.astype(object)
        for i in bad.tolist():
            s, ln = int(starts[i]), int(lengths[i])
            out[i] = data[s : s + ln].decode("utf-8")
    return out


def gather_fields(
    buffer: bytes, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Extract ``buffer[starts[i] : starts[i] + lengths[i]]`` as strings.

    The selective-read fast path knows every field's byte range from the
    positional map, so no delimiter scanning happens at all: the fields
    are gathered out of the read windows by :func:`bulk_extract_fields`
    instead of a per-row Python loop.  The result stays a NumPy string
    array, so predicates mask it and the parser converts it in bulk.
    """
    return bulk_extract_fields(
        buffer,
        np.asarray(starts, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
    )


def split_rows(text: str, delimiter: str = ",") -> list[list[str]]:
    """Tokenize *everything* — the reference implementation.

    Used by tests as ground truth and by callers that genuinely need all
    fields (e.g. the full-load path could use it, though it goes through
    :func:`tokenize_columns` to share the accounting).
    """
    rows: list[list[str]] = []
    for line in text.split("\n"):
        line = line.rstrip("\r")
        if line:
            rows.append(line.split(delimiter))
    return rows
