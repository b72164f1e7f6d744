"""Format adapters: real-world file dialects behind one substrate interface.

The paper's promise is "here are my data files" — *any* files — but the
original substrate only understood unquoted single-character-delimited
CSV.  A :class:`FormatAdapter` captures everything the adaptive machinery
needs to know about a dialect:

* **row framing** — where records begin and end in the decoded text
  (:meth:`~FormatAdapter.row_bounds`);
* **field tokenization** — how one record splits into raw fields with
  their character spans (:meth:`~FormatAdapter.iter_fields`);
* **positional-map offset semantics** — whether per-field spans are
  meaningful (:attr:`~FormatAdapter.supports_field_spans`) and how a raw
  span's text maps back to the logical value
  (:meth:`~FormatAdapter.decode_field`), so selective window reads can
  gather encoded bytes and decode them without a rescan;
* **raw-text round-trip** — :meth:`~FormatAdapter.encode_row` renders
  logical values back into the dialect, raising
  :class:`~repro.errors.FlatFileError` for values the dialect cannot
  represent instead of silently emitting a corrupt row.

Capability flags drive graceful degradation in the engine:

========================  ===================================================
``records_are_lines``     raw newline bytes always terminate records, so
                          a newline-aligned byte range (an appended tail,
                          a schema sample's head lines) holds whole records
``supports_field_spans``  per-field spans exist, enabling positional-map
                          learning and selective reads; the map holds
                          byte offsets, so the adapter's character spans
                          feed it on pure-ASCII text only (the kernel
                          frames bytes on any UTF-8 text)
``identity_decode``       raw field text *is* the logical value (no unquote
                          or unescape step)
``supports_vectorized``   rows and fields are framed by raw ASCII bytes
                          alone, so the NumPy bulk-tokenization kernel
                          (:mod:`repro.flatfile.vectorized`) tokenizes
                          the file; input it declines, and every other
                          dialect, takes the adapter's own field loop
                          (plain delimited, TSV and fixed-width; quoted
                          CSV needs a quote state machine and JSON-lines
                          has no spans)
========================  ===================================================

Concrete adapters: plain delimited (the original substrate), RFC-4180
quoted CSV (quoting, doubled quotes, embedded delimiters/newlines), TSV
with backslash escapes, JSON-lines, and fixed-width records.  A dialect
sniffer (:func:`sniff_format`) picks an adapter from a bounded sample and
refuses loudly — naming the explicit fallbacks — when the evidence is
ambiguous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import FlatFileError, FormatDetectionError

#: Format names accepted by :func:`make_adapter` (and the CLI ``--format``).
FORMATS = ("csv", "quoted-csv", "tsv", "jsonl", "fixed-width")


def as_text(values):
    """Field values as ``str``: an ``S`` batch (ASCII field bytes, as the
    bulk gather returns them) casts to ``U``; lists and ``U``/object
    arrays pass through untouched."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "S":
        return values.astype(str)
    return values


def newline_row_bounds(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Return (row_starts, row_ends) character offsets of non-empty lines.

    The shared framing rule of every newline-terminated dialect: rows end
    at ``\\n``, one trailing ``\\r`` is trimmed (CRLF input), and blank
    lines are skipped.
    """
    starts: list[int] = []
    ends: list[int] = []
    pos = 0
    n = len(text)
    while pos < n:
        nl = text.find("\n", pos)
        if nl == -1:
            nl = n
        end = nl
        if end > pos and text[end - 1] == "\r":
            end -= 1
        if end > pos:  # skip blank lines
            starts.append(pos)
            ends.append(end)
        pos = nl + 1
    return np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64)


def _iter_delimited(row: str, delimiter: str) -> Iterator[tuple[int, int, str]]:
    """Span-yielding field scan shared by the plain and TSV dialects."""
    pos = 0
    while True:
        nxt = row.find(delimiter, pos)
        if nxt == -1:
            yield pos, len(row), row[pos:]
            return
        yield pos, nxt, row[pos:nxt]
        pos = nxt + 1


class FormatAdapter:
    """Base class of all dialect adapters (see module docstring)."""

    name = "abstract"
    records_are_lines = True
    supports_field_spans = True
    identity_decode = False
    supports_vectorized = False
    #: Characters between one field's span end and the next field's
    #: start: the positional map derives ends from starts with it.
    sep = 1
    #: The character between two fields, for dialects that have one.
    delimiter: str | None = None

    # ------------------------------------------------------------- framing

    def row_bounds(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Character spans of each record in ``text`` (newline framing)."""
        return newline_row_bounds(text)

    # ------------------------------------------------------------ tokenize

    def iter_fields(self, row: str) -> Iterator[tuple[int, int, str]]:
        """Yield ``(start, end, raw_text)`` per field of one record.

        Offsets are relative to the start of ``row``; ``raw_text`` is the
        *encoded* field (``row[start:end]``), which :meth:`decode_field`
        maps to the logical value.  Lazy by contract so early abort can
        stop consuming after the last needed column.
        """
        raise NotImplementedError

    def row_values(self, row: str) -> list[str]:
        """All logical field values of one record, in order."""
        return [self.decode_field(raw) for _, _, raw in self.iter_fields(row)]

    # -------------------------------------------------------------- decode

    def decode_field(self, raw: str) -> str:
        """Map one raw encoded field to its logical value."""
        return raw

    def decode_many(self, values):
        """Decode a batch of raw fields (list or NumPy ``S``/``U`` array).

        The identity-dialect fast path returns the batch untouched —
        including whole NumPy arrays from the vectorized kernel, so
        pure-ASCII plain-delimited content never pays a per-field decode
        and stays ``S`` bytes for the parser.  Non-identity dialects that
        the kernel supports override this with a bulk, array-in/array-out
        implementation; the base per-field loop works on ``str`` (an
        ``S`` batch is cast to ``U`` first) and keeps arrays arrays too
        (the selective-read gather hands quoted CSV one).
        """
        if self.identity_decode:
            return values
        values = as_text(values)
        decoded = [self.decode_field(v) for v in values]
        if isinstance(values, np.ndarray):
            return np.array(decoded, dtype=object)
        return decoded

    # -------------------------------------------------------------- encode

    def encode_row(self, values: Sequence[str]) -> str:
        """Render logical values as one record (no trailing newline).

        Raises :class:`FlatFileError` when a value cannot be represented
        in this dialect — never silently emits a corrupt row.
        """
        raise NotImplementedError

    # ---------------------------------------------------------------- misc

    @property
    def embedded_header(self) -> list[str] | None:
        """Column names carried by the format itself (JSON-lines keys)."""
        return None

    def reset(self) -> None:
        """Forget any per-file learned state (file edited/invalidated)."""

    def describe(self) -> str:
        return self.name


@dataclass
class DelimitedAdapter(FormatAdapter):
    """The original substrate dialect: unquoted, single-char delimiter.

    Field values may not contain the delimiter or line breaks; in
    exchange, the bulk tokenization kernel, split files and line-based
    framing are all valid.
    """

    delimiter: str = ","

    name = "csv"
    records_are_lines = True
    supports_field_spans = True
    identity_decode = True
    supports_vectorized = True

    def __post_init__(self) -> None:
        if len(self.delimiter) != 1 or self.delimiter in ("\n", "\r"):
            raise FlatFileError(
                f"delimiter must be a single character, got {self.delimiter!r}"
            )

    def describe(self) -> str:
        return f"{self.name}({self.delimiter!r})"

    def iter_fields(self, row: str) -> Iterator[tuple[int, int, str]]:
        return _iter_delimited(row, self.delimiter)

    def encode_row(self, values: Sequence[str]) -> str:
        d = self.delimiter
        for v in values:
            if d in v or "\n" in v or "\r" in v:
                raise FlatFileError(
                    f"value {v!r} contains the delimiter or a line break; the "
                    f"plain {d!r}-delimited dialect cannot represent it "
                    "(use the quoted-csv or tsv dialect)"
                )
        return d.join(values)


@dataclass
class QuotedCsvAdapter(FormatAdapter):
    """RFC-4180 CSV: optional double-quoted fields, ``\"\"`` escaping.

    Quoted fields may contain the delimiter, quotes and raw newlines, so
    row framing is quote-aware and records are not lines.
    Field spans cover the *encoded* field (quotes included); selective
    window reads gather the encoded bytes and decode afterwards.
    """

    delimiter: str = ","

    name = "quoted-csv"
    records_are_lines = False
    supports_field_spans = True
    identity_decode = False

    def __post_init__(self) -> None:
        if len(self.delimiter) != 1 or self.delimiter in ('"', "\n", "\r"):
            raise FlatFileError(
                f"delimiter must be a single non-quote character, got {self.delimiter!r}"
            )

    def describe(self) -> str:
        return f"{self.name}({self.delimiter!r})"

    def row_bounds(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        # The same leniency rule as :meth:`iter_fields`: a quote opens a
        # quoted field only at a *field start* (start of text, or right
        # after a delimiter or newline); a stray quote mid-field is data
        # and must not swallow the following newline.
        starts: list[int] = []
        ends: list[int] = []
        n = len(text)
        d = self.delimiter
        pos = 0
        row_start = 0
        in_quotes = False

        def close_row(end: int) -> None:
            if end > row_start and text[end - 1] == "\r":
                end -= 1
            if end > row_start:
                starts.append(row_start)
                ends.append(end)

        while pos < n:
            if in_quotes:
                q = text.find('"', pos)
                if q == -1:
                    raise FlatFileError(
                        "unterminated quoted field at end of file"
                    )
                if text[q + 1 : q + 2] == '"':
                    pos = q + 2
                    continue
                in_quotes = False
                pos = q + 1
                continue
            nl = text.find("\n", pos)
            q = text.find('"', pos)
            while q != -1 and (nl == -1 or q < nl):
                if q == 0 or text[q - 1] in (d, "\n"):
                    break  # field-start quote: opens a quoted field
                q = text.find('"', q + 1)  # mid-field quote: plain data
            if q != -1 and (nl == -1 or q < nl):
                in_quotes = True
                pos = q + 1
                continue
            if nl == -1:
                break
            close_row(nl)
            row_start = nl + 1
            pos = nl + 1
        if in_quotes:
            raise FlatFileError("unterminated quoted field at end of file")
        if row_start < n:
            close_row(n)
        return (
            np.asarray(starts, dtype=np.int64),
            np.asarray(ends, dtype=np.int64),
        )

    def iter_fields(self, row: str) -> Iterator[tuple[int, int, str]]:
        d = self.delimiter
        n = len(row)
        pos = 0
        while True:
            start = pos
            if pos < n and row[pos] == '"':
                i = pos + 1
                while True:
                    q = row.find('"', i)
                    if q == -1:
                        raise FlatFileError("unterminated quoted field")
                    if row[q + 1 : q + 2] == '"':
                        i = q + 2
                        continue
                    break
                fend = q + 1
                if fend < n and row[fend] != d:
                    raise FlatFileError(
                        f"unexpected character {row[fend]!r} after closing quote"
                    )
                yield start, fend, row[start:fend]
                if fend >= n:
                    return
                pos = fend + 1
            else:
                nxt = row.find(d, pos)
                if nxt == -1:
                    yield start, n, row[start:]
                    return
                yield start, nxt, row[start:nxt]
                pos = nxt + 1

    def decode_field(self, raw: str) -> str:
        if len(raw) >= 2 and raw.startswith('"') and raw.endswith('"'):
            return raw[1:-1].replace('""', '"')
        return raw

    def encode_row(self, values: Sequence[str]) -> str:
        d = self.delimiter
        out = []
        for v in values:
            if d in v or '"' in v or "\n" in v or "\r" in v:
                out.append('"' + v.replace('"', '""') + '"')
            else:
                out.append(v)
        return d.join(out)


#: Escape table of the TSV dialect (backslash escapes, both directions).
_TSV_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


@dataclass
class TsvAdapter(FormatAdapter):
    """Tab-separated values with backslash escapes (``\\t \\n \\r \\\\``).

    Literal tabs/newlines inside values are always escaped, so raw tab
    bytes only ever separate fields and raw newline bytes only ever
    terminate records — framing stays line-based.
    """

    name = "tsv"
    delimiter = "\t"
    records_are_lines = True
    supports_field_spans = True
    identity_decode = False
    supports_vectorized = True

    def iter_fields(self, row: str) -> Iterator[tuple[int, int, str]]:
        return _iter_delimited(row, "\t")

    def decode_many(self, values):
        """Bulk unescape: untouched fields (the common case) never loop.

        An ``S`` batch is probed for the backslash byte and, untouched,
        returned as bytes; only a batch with an escape becomes ``str``.
        """
        if isinstance(values, np.ndarray):
            if len(values) == 0:
                return values
            if values.dtype.kind in "SU":
                backslash = b"\\" if values.dtype.kind == "S" else "\\"
                escaped = np.char.find(values, backslash) >= 0
                if not escaped.any():
                    return values
                out = as_text(values).astype(object)
            else:
                out = values.astype(object)
                escaped = np.fromiter(
                    ("\\" in v for v in out), dtype=bool, count=len(out)
                )
            for i in np.nonzero(escaped)[0].tolist():
                out[i] = self.decode_field(str(out[i]))
            return out
        return [self.decode_field(v) for v in values]

    def decode_field(self, raw: str) -> str:
        if "\\" not in raw:
            return raw
        out: list[str] = []
        i = 0
        n = len(raw)
        while i < n:
            ch = raw[i]
            if ch == "\\" and i + 1 < n:
                mapped = _TSV_UNESCAPE.get(raw[i + 1])
                if mapped is not None:
                    out.append(mapped)
                    i += 2
                    continue
            out.append(ch)
            i += 1
        return "".join(out)

    def encode_row(self, values: Sequence[str]) -> str:
        return "\t".join(
            v.replace("\\", "\\\\")
            .replace("\t", "\\t")
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            for v in values
        )


def _json_scalar_to_text(value, context: str) -> str:
    """Render one JSON scalar the way the flat-file parser round-trips it."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):  # before int: bool is an int subclass
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    raise FlatFileError(
        f"nested JSON value in {context}: the engine's columns are scalar"
    )


@dataclass
class JsonLinesAdapter(FormatAdapter):
    """One JSON object (or array) per line.

    Objects carry their own column names: the first parsed object fixes
    the key order for the whole file (recorded in :attr:`columns`).
    JSON escapes newlines inside strings, so framing stays line-based;
    per-field character spans are not meaningful, so the positional map
    keeps row framing only and selective reads degrade to full scans.
    """

    columns: tuple[str, ...] | None = None

    name = "jsonl"
    records_are_lines = True
    supports_field_spans = False
    identity_decode = True

    def row_values(self, row: str) -> list[str]:
        try:
            obj = json.loads(row)
        except ValueError as exc:
            raise FlatFileError(f"invalid JSON line: {exc}") from exc
        if isinstance(obj, dict):
            if self.columns is None:
                self.columns = tuple(obj.keys())
            if set(obj) != set(self.columns):
                raise FlatFileError(
                    f"JSON line keys {sorted(obj)} do not match the file's "
                    f"columns {sorted(self.columns)}"
                )
            return [
                _json_scalar_to_text(obj[k], f"column {k!r}")
                for k in self.columns
            ]
        if isinstance(obj, list):
            return [
                _json_scalar_to_text(v, f"index {i}") for i, v in enumerate(obj)
            ]
        raise FlatFileError(
            "JSON line is neither an object nor an array"
        )

    def iter_fields(self, row: str) -> Iterator[tuple[int, int, str]]:
        # Spans are not meaningful for JSON-lines; callers honouring
        # ``supports_field_spans`` use :meth:`row_values` instead.
        for value in self.row_values(row):
            yield 0, 0, value

    @property
    def embedded_header(self) -> list[str] | None:
        return list(self.columns) if self.columns is not None else None

    def reset(self) -> None:
        self.columns = None

    def encode_row(self, values: Sequence[str]) -> str:
        # Values are encoded as JSON strings (not sniffed back into
        # numbers): the raw text of every field round-trips exactly.
        if self.columns is not None:
            if len(values) != len(self.columns):
                raise FlatFileError(
                    f"row has {len(values)} values for {len(self.columns)} columns"
                )
            payload: object = {k: v for k, v in zip(self.columns, values)}
        else:
            payload = list(values)
        return json.dumps(payload, ensure_ascii=False)


@dataclass
class FixedWidthAdapter(FormatAdapter):
    """Fixed-width records: each field owns a fixed character width.

    Values are left-aligned and right-padded with spaces; decoding strips
    the padding.  Values wider than their field, with trailing spaces, or
    containing line breaks are unrepresentable and raise on encode.
    """

    widths: tuple[int, ...]

    name = "fixed-width"
    records_are_lines = True
    supports_field_spans = True
    identity_decode = False
    supports_vectorized = True
    sep = 0

    def __post_init__(self) -> None:
        self.widths = tuple(int(w) for w in self.widths)
        if not self.widths or any(w <= 0 for w in self.widths):
            raise FlatFileError(
                f"fixed-width field widths must be positive, got {self.widths!r}"
            )

    def describe(self) -> str:
        return f"{self.name}({','.join(map(str, self.widths))})"

    @property
    def row_chars(self) -> int:
        return sum(self.widths)

    def iter_fields(self, row: str) -> Iterator[tuple[int, int, str]]:
        if len(row) != self.row_chars:
            raise FlatFileError(
                f"fixed-width row has {len(row)} characters, "
                f"expected {self.row_chars}"
            )
        pos = 0
        for w in self.widths:
            yield pos, pos + w, row[pos : pos + w]
            pos += w

    def decode_field(self, raw: str) -> str:
        return raw.rstrip(" ")

    def decode_many(self, values):
        """Bulk de-pad: one vectorized rstrip instead of a Python loop.

        Array in, array out — the kernel indexes the result with NumPy
        row selections, so the object-dtype batches (NUL-trailing
        fields) must stay arrays too.  An ``S`` batch is de-padded as
        bytes and stays ``S``.
        """
        if isinstance(values, np.ndarray):
            if len(values) == 0:
                return values
            if values.dtype.kind == "S":
                return np.char.rstrip(values, b" ")
            if values.dtype.kind == "U":
                return np.char.rstrip(values, " ")
            return np.array(
                [self.decode_field(str(v)) for v in values], dtype=object
            )
        return [self.decode_field(v) for v in values]

    def encode_row(self, values: Sequence[str]) -> str:
        if len(values) != len(self.widths):
            raise FlatFileError(
                f"row has {len(values)} values for {len(self.widths)} "
                "fixed-width fields"
            )
        parts = []
        for v, w in zip(values, self.widths):
            if "\n" in v or "\r" in v:
                raise FlatFileError(
                    f"value {v!r} contains a line break; the fixed-width "
                    "dialect cannot represent it"
                )
            if len(v) > w:
                raise FlatFileError(
                    f"value {v!r} is wider than its fixed-width field ({w})"
                )
            if v != v.rstrip(" "):
                raise FlatFileError(
                    f"value {v!r} has trailing spaces; the fixed-width "
                    "dialect cannot represent them"
                )
            parts.append(v.ljust(w))
        return "".join(parts)


# ---------------------------------------------------------------------------
# adapter factory + dialect sniffing
# ---------------------------------------------------------------------------


def make_adapter(
    format: str | None = None,
    delimiter: str = ",",
    fixed_widths: Sequence[int] | None = None,
) -> FormatAdapter | None:
    """Build the adapter for an explicit format choice.

    ``None`` and ``"csv"`` mean the original plain delimited substrate;
    ``"auto"`` returns ``None`` — the caller defers to :func:`sniff_format`
    on first real use of the file.
    """
    if format is None or format == "csv":
        return DelimitedAdapter(delimiter)
    if format == "auto":
        return None
    if format == "quoted-csv":
        return QuotedCsvAdapter(delimiter)
    if format == "tsv":
        return TsvAdapter()
    if format == "jsonl":
        return JsonLinesAdapter()
    if format == "fixed-width":
        if not fixed_widths:
            raise FlatFileError(
                "the fixed-width format needs explicit field widths "
                "(fixed_widths=..., or --fixed-widths on the CLI)"
            )
        return FixedWidthAdapter(tuple(fixed_widths))
    raise FlatFileError(
        f"unknown format {format!r}; expected one of {FORMATS} or 'auto'"
    )


#: Delimiters the sniffer considers, in priority order.
_SNIFF_DELIMITERS = (",", "\t", ";", "|")

#: How many sample lines the sniffer inspects at most.
_SNIFF_LINES = 64


def _count_outside_quotes(line: str, delimiter: str) -> tuple[int, bool]:
    """``(count, quoted_fields)`` for one line under one delimiter.

    ``count`` is the number of ``delimiter`` occurrences outside
    double-quoted regions; ``quoted_fields`` is True when at least one
    field *starts* with a quote.  The distinction matters: a stray quote
    mid-field (``5"2``) is data, not RFC-4180 quoting, and treating it
    as quoting would silently swallow delimiters and newlines.
    """
    count = 0
    quoted_fields = False
    in_quotes = False
    field_start = True
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch == '"':
            if field_start and not in_quotes:
                quoted_fields = True
                in_quotes = True
            elif in_quotes:
                if line[i + 1 : i + 2] == '"':
                    i += 2
                    continue
                in_quotes = False
            field_start = False
        elif ch == delimiter and not in_quotes:
            count += 1
            field_start = True
        else:
            field_start = False
        i += 1
    return count, quoted_fields


def _is_json_record(line: str) -> bool:
    stripped = line.lstrip()
    if not stripped or stripped[0] not in "{[":
        return False
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return isinstance(obj, (dict, list))


def _infer_fixed_widths(lines: list[str]) -> tuple[int, ...] | None:
    """Infer fixed-width field boundaries from all-space column runs.

    Needs at least two equal-length lines whose shared space columns
    split every line into two or more fields; anything less is not
    evidence enough to call the file fixed-width.
    """
    if len(lines) < 2:
        return None
    length = len(lines[0])
    if length < 2 or any(len(ln) != length for ln in lines):
        return None
    common_space = [
        i for i in range(length) if all(ln[i] == " " for ln in lines)
    ]
    if not common_space:
        return None
    space_set = set(common_space)
    # A field starts right after each maximal run of shared space columns.
    field_starts = [0] + [
        i + 1 for i in common_space if i + 1 < length and i + 1 not in space_set
    ]
    if len(field_starts) < 2:
        return None
    bounds = field_starts + [length]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def sniff_format(sample: str, source: str = "file") -> FormatAdapter:
    """Pick an adapter from a bounded text sample, or refuse loudly.

    The decision procedure, in order: JSON-lines when every sample line
    parses as a JSON object/array; otherwise the unique delimiter among
    ``, \\t ; |`` with a consistent non-zero per-line count — under the
    quote-aware count when fields genuinely *start* with quotes (quoted
    CSV), else under the naive count (TSV escape dialect for tabs,
    plain delimited otherwise; a stray quote mid-field is data, never
    quoting evidence); otherwise single-column quoted text when every
    line opens with a quote; otherwise fixed-width when shared space
    columns align across equal-length lines; otherwise a single-column
    plain file — but only when no delimiter character occurs at all.
    Everything else refuses: empty files, ambiguity (two consistent
    delimiters) and inconsistent delimiter counts (free text) raise
    :class:`~repro.errors.FormatDetectionError` telling the caller to
    pass an explicit ``--format``/``--delimiter``.
    """
    lines = [ln.rstrip("\r") for ln in sample.split("\n")]
    lines = [ln for ln in lines if ln][:_SNIFF_LINES]
    if not lines:
        raise FormatDetectionError(
            f"cannot sniff the format of {source}: the file is empty; "
            "pass an explicit --format/--delimiter (attach(..., format=...))"
        )
    if all(_is_json_record(ln) for ln in lines):
        return JsonLinesAdapter()
    # Per candidate delimiter, decide which *interpretation* survives the
    # whole sample: quoted (quote-aware counts consistent AND fields
    # actually start with quotes) or plain (naive counts consistent).  A
    # stray quote mid-field is data, so it never flips a file to quoted.
    consistent: list[tuple[str, bool]] = []
    for d in _SNIFF_DELIMITERS:
        aware = [_count_outside_quotes(ln, d) for ln in lines]
        counts = [c for c, _ in aware]
        boundary_quotes = any(q for _, q in aware)
        if boundary_quotes and counts[0] > 0 and all(c == counts[0] for c in counts):
            consistent.append((d, True))
            continue
        naive = [ln.count(d) for ln in lines]
        if naive[0] > 0 and all(c == naive[0] for c in naive):
            consistent.append((d, False))
    if len(consistent) > 1:
        names = [d for d, _ in consistent]
        raise FormatDetectionError(
            f"ambiguous delimiter in {source}: candidates {names!r} all "
            "split the sample consistently; pass an explicit --delimiter or "
            "--format (attach(..., delimiter=...) / attach(..., format=...))"
        )
    if consistent:
        d, quoted = consistent[0]
        if quoted:
            return QuotedCsvAdapter(d)
        if d == "\t":
            return TsvAdapter()
        return DelimitedAdapter(d)
    if all(ln.startswith('"') for ln in lines):
        # Single-column quoted text ("a b" per line): no delimiter, but
        # quoting is strong evidence against plain/fixed-width framing.
        return QuotedCsvAdapter(",")
    widths = _infer_fixed_widths(lines)
    if widths is not None:
        return FixedWidthAdapter(widths)
    seen = [d for d in _SNIFF_DELIMITERS if any(d in ln for ln in lines)]
    if seen:
        # Delimiter characters occur but never consistently: free text,
        # a ragged file, or a dialect we don't know.  Guessing here
        # would split some rows and not others — refuse instead.
        raise FormatDetectionError(
            f"no consistent delimiter in {source}: {seen!r} appear but "
            "with varying per-line counts; pass an explicit --delimiter "
            "or --format (attach(..., delimiter=...) / "
            "attach(..., format=...))"
        )
    # No delimiter anywhere: a single-column plain file.
    return DelimitedAdapter(",")
