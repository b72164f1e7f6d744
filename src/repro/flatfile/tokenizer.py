"""Selective tokenization (paper section 3.2).

The adaptive loading operators never split whole rows when they do not have
to.  The tokenizer implemented here mirrors the three tricks the paper's
MonetDB operators use:

1. **Early abort** — while tokenizing a row, stop as soon as the last
   column the query needs has been located; fields to the right of it are
   never touched.
2. **Predicate pushdown** — when the WHERE clause is pushed into the load,
   each needed field is parsed and tested the moment it is tokenized, and
   the rest of the row is abandoned as soon as one conjunct fails.
3. **Learning** — every located field start is offered to the file's
   :class:`~repro.flatfile.positions.PositionalMap`, as one frame; a later
   query on a learned column reads just its bytes
   (:mod:`repro.core.loader`'s selective route) instead of tokenizing.

:func:`tokenize_bytes` is the one entry point over raw file bytes.  Dialects
framed by raw ASCII bytes (``FormatAdapter.supports_vectorized``: plain
delimited, TSV, fixed-width) go through the NumPy bulk kernel
(:mod:`repro.flatfile.vectorized`), cold or with a warm positional map.
Everything else — quoted CSV, JSON-lines, and any input the kernel
declines (ragged rows, a non-ASCII delimiter, non-ASCII fixed-width
content) — is decoded once and takes :func:`tokenize_dialect`, which
drives the adapter's own row framing and lazy field iteration with the
same semantics: early abort stops consuming a record after the last
needed column, pushdown predicates abandon rows at the first failing
conjunct, short rows raise "fewer than N fields", and field spans (where
the dialect defines them — all but JSON-lines) feed the positional map.
Invalid UTF-8 raises :class:`~repro.errors.FlatFileError` naming the byte.

Field text leaves the bulk kernel and the selective-read gather as
:class:`FieldSpans` — the buffer plus each field's start and length,
nothing cut out yet — so the parser reads a plain digit column straight
from the bytes.  Any other batch is cut by :meth:`FieldSpans.values`
into a NumPy array: ``S`` bytes on pure-ASCII input, so the parser casts
bytes straight to numbers with no ``str`` detour, and ``U`` strings
otherwise.  :func:`~repro.flatfile.dialects.as_text` turns a batch into
``str`` where a string is the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.errors import FlatFileError
from repro.flatfile.dialects import FormatAdapter, as_text
from repro.flatfile.files import decode_utf8
from repro.flatfile.positions import PositionalMap


class RawPredicate(Protocol):
    """A pushdown predicate over raw field text: may the row still qualify?

    ``pred(text)`` answers for one field (:func:`tokenize_dialect`, row by
    row),
    ``pred.mask(values)`` for a whole batch of fields, as
    :class:`FieldSpans` (the bulk kernel and the selective-read route).
    Parsing happens inside, so the tokenizer stays type-agnostic."""

    def __call__(self, text: str) -> bool: ...

    def mask(self, values: "FieldSpans") -> np.ndarray: ...


@dataclass
class TokenizerStats:
    """Work counters for one tokenization pass: the work its route did.

    ``rows_scanned``, ``rows_emitted`` and ``rows_abandoned`` count the
    data rows framed, kept, and dropped by a pushdown predicate (on the
    selective read, also the rows a zone map ruled out unread).

    ``fields_tokenized`` counts fields cut out of the input: on the bulk
    kernel and the selective read, each predicate column over the rows it
    was tested on plus each other needed column over the survivors; on
    the dialect loop, every field it walked: up to the last needed one,
    or the whole record where fields have no spans (JSON-lines).

    ``chars_scanned`` counts the characters of input a pass covers, each
    once however often it is looked at: the whole input on the kernel
    (the bytes less the UTF-8 continuation bytes) and on the dialect
    loop, the window bytes on the selective read, whose byte offsets
    come from the positional map.
    """

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
class FieldSpans:
    """A batch of fields not yet cut out: field ``i`` is
    ``data[starts[i] : starts[i] + lengths[i]]``, still encoded.

    The bulk kernel, the selective-read gather and the split-file reader
    hand the parser this, so a plain digit column is parsed straight from
    the buffer (:func:`~repro.flatfile.parser.parse_fields`) and no field
    array is ever built for it.  :meth:`values` cuts any other batch into
    an array (:func:`bulk_extract_fields`) and decodes it (``decode``:
    the adapter's ``decode_many``; every dialect leaves a field of plain
    digits as it is).  ``ascii_only`` and ``nul_free`` are what the
    producer already knows of the buffer (see
    :func:`bulk_extract_fields`).  Indexing with row positions gives the
    spans of those rows.
    """

    data: bytes | memoryview
    starts: np.ndarray
    lengths: np.ndarray
    decode: Callable | None = None
    ascii_only: bool | None = None
    nul_free: bool = False
    buf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.buf = np.frombuffer(self.data, dtype=np.uint8)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, rows: np.ndarray) -> "FieldSpans":
        return FieldSpans(
            self.data,
            self.starts[rows],
            self.lengths[rows],
            self.decode,
            self.ascii_only,
            self.nul_free,
        )

    def values(self) -> np.ndarray:
        """The fields as an array: ``S`` bytes on ASCII input, decoded."""
        values = bulk_extract_fields(
            self.data,
            self.starts,
            self.lengths,
            buf=self.buf,
            ascii_only=self.ascii_only,
            nul_free=self.nul_free,
        )
        return values if self.decode is None else self.decode(values)


@dataclass
class TokenizeResult:
    """Output of one selective tokenization pass.

    ``fields[col]`` holds the text of column ``col`` for every emitted
    row, in row order — a plain list of ``str`` from
    :func:`tokenize_dialect`, the fields' :class:`FieldSpans` from the
    vectorized kernel; downstream typed parsing converts whole batches
    in bulk.  ``row_ids`` are the 0-based indices
    (within the tokenized range) of the emitted rows; when predicates
    filtered nothing, this is simply ``arange(rows_scanned)``.
    """

    fields: dict[int, "Sequence[str] | FieldSpans"]
    row_ids: np.ndarray
    stats: TokenizerStats = field(default_factory=TokenizerStats)


def tokenize_dialect(
    text: str,
    adapter: FormatAdapter,
    ncols: int,
    needed: Sequence[int],
    *,
    predicates: dict[int, RawPredicate] | None = None,
    positional_map: PositionalMap | None = None,
    learn: bool = True,
    skip_rows: int = 0,
) -> TokenizeResult:
    """Tokenize the ``needed`` columns under any :class:`FormatAdapter`.

    The dialect-generic pass: the adapter frames rows and iterates raw
    fields lazily, fields are decoded to their logical values, and — for
    span-bearing dialects — raw-field spans feed the positional map, their
    character offsets converted to its byte offsets on non-ASCII text.
    Each record stops after the last needed column (early abort), so a
    ragged tail beyond it is never seen.  The returned ``fields`` always
    hold *logical* (decoded) values under every adapter.
    """
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
    stats.chars_scanned = len(text)  # framing covers every character

    if learn and positional_map is not None:
        positional_map.record_nrows(nrows)

    spans_ok = adapter.supports_field_spans
    wanted_set = set(wanted)
    last_needed = wanted[-1]
    learn_cols = range(min(last_needed + 1, ncols)) if learn and spans_ok else ()
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
                if col in wanted_set:
                    # A needed field that runs to the end of a row with
                    # columns still owed means the row is short, even
                    # though no later field is touched and whatever its
                    # predicate says.
                    if fend >= len(row) and col < ncols - 1:
                        raise FlatFileError(
                            f"row {row_idx} has fewer than {ncols} fields"
                        )
                    value = adapter.decode_field(raw)
                    extracted[col] = value
                    pred = predicates.get(col)
                    if pred is not None and not pred(value):
                        qualified = False
                        stats.rows_abandoned += 1
                        break
                if col >= last_needed:
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
        # The prefix of columns spanned in every row, as one frame: each
        # field's start, then the last field's end plus its separator.
        width = 0
        while width in learned and len(learned[width]) == nrows:
            width += 1
        if width:
            frame = np.empty((nrows, width + 1), dtype=np.int64)
            for col in range(width):
                frame[:, col] = learned[col]
            frame[:, width] = learned_ends[width - 1]
            if not text.isascii():
                # The walk ran over characters and the map holds bytes:
                # one char -> byte table (``c2b[i]`` is character ``i``'s
                # byte offset, ``c2b[len(text)]`` the text's byte size).
                buf = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
                c2b = np.append(np.flatnonzero((buf & 0xC0) != 0x80), len(buf))
                frame = c2b[frame]
            frame[:, width] += adapter.sep  # ASCII separators: one byte each
            positional_map.record_frame(frame, sep=adapter.sep)

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
    predicates: dict[int, RawPredicate] | None = None,
    positional_map: PositionalMap | None = None,
    learn: bool = True,
    skip_rows: int = 0,
    source: object = "raw bytes",
    offset: int = 0,
) -> TokenizeResult:
    """Tokenize raw file bytes: the vectorized kernel, else the dialect loop.

    Dialects framed by raw ASCII bytes (``adapter.supports_vectorized``)
    go through the NumPy bulk kernel, which touches each byte once, in
    bulk, and never decodes the file to a Python string on the pure-ASCII
    path, warm positional map or not.  Everything else — and any input
    the kernel declines (ragged rows, a non-ASCII delimiter, invalid
    UTF-8, non-ASCII fixed-width) — decodes once and takes
    :func:`tokenize_dialect`.  ``source`` and ``offset`` (where ``data``
    starts in it) only name the file byte an invalid-UTF-8 error reports.
    """
    if adapter.supports_vectorized:
        from repro.flatfile.vectorized import tokenize_vectorized

        result = tokenize_vectorized(
            data,
            adapter,
            ncols=ncols,
            needed=needed,
            predicates=predicates,
            positional_map=positional_map,
            learn=learn,
            skip_rows=skip_rows,
        )
        if result is not None:
            return result
    text = decode_utf8(data, source, offset)
    return tokenize_dialect(
        text,
        adapter,
        ncols=ncols,
        needed=needed,
        predicates=predicates,
        positional_map=positional_map,
        learn=learn,
        skip_rows=skip_rows,
    )


#: Above this field width the padded gather matrix (nrows x maxlen) stops
#: paying for itself; fall back to direct per-slice extraction.
_GATHER_MAX_FIELD = 256

#: Byte indices the gather builds at a time: 512 KiB of int64 stays in
#: the L2 cache, where one index matrix for the whole batch would be
#: eight times the batch's bytes, page-faulted in and thrown away.
_GATHER_BLOCK = 1 << 16


def bulk_extract_fields(
    data: bytes,
    starts: np.ndarray,
    lengths: np.ndarray,
    *,
    buf: np.ndarray | None = None,
    ascii_only: bool | None = None,
    nul_free: bool = False,
) -> np.ndarray:
    """Bulk-slice ``data[starts[i] : starts[i] + lengths[i]]`` into fields.

    The extraction core behind :meth:`FieldSpans.values`: NumPy
    fancy-indexing steps build a ``(n, maxlen)`` NUL-padded byte matrix
    viewed as fixed-width bytes.  When the content is pure ASCII that
    ``S`` array *is* the result — no decode at all; the parser casts
    ``S`` straight to int64/float64, and only string answers become
    ``str`` (:func:`~repro.flatfile.dialects.as_text`).  Other content is
    decoded to ``U`` with a C-level ``np.char.decode``.  Fields wider
    than the padded matrix pays for (:data:`_GATHER_MAX_FIELD`) are
    sliced directly into an object array of ``str`` — one whole-window
    ASCII decode when possible, per-field UTF-8 otherwise.

    The fixed-width ``S`` view strips trailing NULs, which would truncate
    a field that legitimately ends in NUL bytes; unless the caller
    vouches the buffer is NUL-free, every field's byte length in the
    ``S`` view is audited against ``lengths`` before any decode, and
    mismatches are re-sliced exactly into an object-dtype batch of
    ``str`` (the whole batch is ``str`` then, never a mix of ``bytes``
    and ``str``).

    ``data`` is any buffer (``bytes``, or the ``memoryview`` of a window
    read); fields are decoded with ``str(data[a:b], encoding)``, which
    accepts either.

    ``buf``/``ascii_only`` let a caller that already scanned the bytes
    (the kernel) skip recomputing them.
    """
    n = len(starts)
    if n == 0:
        return np.empty(0, dtype="S1")
    if (lengths < 0).any():
        raise FlatFileError("gather_fields: negative field length")
    maxlen = int(lengths.max())
    if maxlen == 0:
        return np.zeros(n, dtype="S1")
    if maxlen > _GATHER_MAX_FIELD:
        pairs = list(zip(starts.tolist(), lengths.tolist()))
        # One whole-buffer decode beats per-field decodes only when the
        # fields cover most of the buffer (the selective-read windows);
        # a single wide column of a big file decodes just its slices.
        if ascii_only is not False and 2 * int(lengths.sum()) >= len(data):
            try:
                text = str(data, "ascii")
                return np.array(
                    [text[s : s + ln] for s, ln in pairs], dtype=object
                )
            except UnicodeDecodeError:
                pass
        return np.array(
            [str(data[s : s + ln], "utf-8") for s, ln in pairs],
            dtype=object,
        )
    if buf is None:
        buf = np.frombuffer(data, dtype=np.uint8)
    if len(buf) == 0:
        raise FlatFileError("gather_fields: non-empty fields but empty buffer")
    # Built column-major, (maxlen, n), so every NumPy loop runs over the
    # fields rather than a field's few bytes, a block of fields at a
    # time; one transposing copy packs it row-major for the ``S`` view.
    offs = np.arange(maxlen, dtype=np.int64)[:, None]
    chars = np.empty((maxlen, n), dtype=np.uint8)
    step = max(1, _GATHER_BLOCK // maxlen)
    for lo in range(0, n, step):
        block = chars[:, lo : lo + step]
        buf.take(offs + starts[lo : lo + step], out=block, mode="clip")
        block *= offs < lengths[lo : lo + step]  # the bytes past a field
    packed = np.ascontiguousarray(chars.T).view(f"S{maxlen}").ravel()
    if ascii_only is None:
        ascii_only = bool(chars.max() < 128)
    del chars
    bad = () if nul_free else np.flatnonzero(np.char.str_len(packed) != lengths)
    out = packed if ascii_only else np.char.decode(packed, "utf-8")
    if len(bad):
        out = as_text(out).astype(object)
        for i in bad.tolist():
            s, ln = int(starts[i]), int(lengths[i])
            out[i] = str(data[s : s + ln], "utf-8")
    return out


def gather_fields(
    buffer: bytes,
    starts: np.ndarray,
    lengths: np.ndarray,
    decode: Callable | None = None,
) -> FieldSpans:
    """The fields ``buffer[starts[i] : starts[i] + lengths[i]]``, as spans.

    The selective-read fast path knows every field's byte range from the
    positional map, so no delimiter scanning happens at all: the fields
    are cut out of the read windows as one :class:`FieldSpans` batch, not
    by a per-row Python loop.  Predicates mask it and the parser converts
    it in bulk: a plain digit column straight from the buffer, any other
    batch through :meth:`FieldSpans.values`.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(lengths) and lengths.min() < 0:
        raise FlatFileError("gather_fields: negative field length")
    return FieldSpans(buffer, np.asarray(starts, dtype=np.int64), lengths, decode)
