"""Typed parsing of tokenized fields into NumPy arrays.

Tokenization (locating field boundaries) and parsing (converting field text
into typed values) are separate costs in the paper's analysis, and they are
separate functions here.  ``parse_fields`` is the single choke point where
raw field text becomes columnar arrays, so the per-value conversion cost — the
thing a DBMS pays once at load time and a scripting tool pays on every
query — is centralised and measurable.  A STRING column leaves it as a
:class:`~repro.strings.StringColumn` (dictionary codes), its only form
until the executor emits result rows.

The bulk kernel and the selective-read gather hand it
:class:`~repro.flatfile.tokenizer.FieldSpans` — the buffer plus each
field's start and length.  An INT64 batch of plain digits is read from
those spans directly, a block of fields at a time (:func:`_parse_digits`),
so no field array is built for it; every other batch is cut into an
array first and cast as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import FlatFileError
from repro.flatfile.schema import DataType
from repro.flatfile.tokenizer import FieldSpans
from repro.strings import StringColumn


@dataclass
class ParseStats:
    """Counter of typed conversions performed."""

    values_parsed: int = 0

    def merge(self, other: "ParseStats") -> None:
        self.values_parsed += other.values_parsed


def parse_fields(
    raw: Sequence[str] | np.ndarray | FieldSpans,
    dtype: DataType,
    stats: ParseStats | None = None,
) -> np.ndarray | StringColumn:
    """Convert raw field text into a typed NumPy array (numbers) or a
    :class:`~repro.strings.StringColumn` (strings).

    Raises :class:`FlatFileError` on the first unparseable value, naming
    the value — silent coercion would corrupt query answers.  An integer
    outside int64 is unparseable as int64 too, so the widening ladder
    takes the column to float64.

    An INT64 batch whose every field is 1-15 plain ASCII digits is read
    by :func:`_parse_digits`: from the spans themselves when ``raw`` is
    :class:`~repro.flatfile.tokenizer.FieldSpans`, and from an ``S``
    array's own bytes (a dialect's decoded batch, say fixed-width fields
    with their padding stripped).  Any other batch of spans is cut into
    an array (:meth:`~repro.flatfile.tokenizer.FieldSpans.values`), and
    a NumPy array converts with one bulk ``astype`` over the whole
    column.  An ``S`` array (ASCII field bytes) casts straight to
    int64/float64 with no ``str`` detour; a STRING column encodes its
    distinct values, which alone become ``str``.  NumPy's ``S``- and
    ``U``-to-number casts apply the same Python-level
    ``int()``/``float()`` parsing rules as the per-value loop on ASCII
    text (sign, whitespace, ``_`` separators, ``nan``/``inf``,
    exponents, overflow past int64), so acceptance, values and the
    widening ladder's trigger points are identical — only the per-value
    interpreter dispatch disappears.
    """
    if stats is not None:
        stats.values_parsed += len(raw)
    try:
        if isinstance(raw, FieldSpans):
            if dtype is DataType.INT64:
                digits = _parse_digits(raw.buf, raw.starts, raw.lengths)
                if digits is not None:
                    return digits
            raw = raw.values()
        if isinstance(raw, np.ndarray) and raw.dtype.kind in ("S", "U", "O"):
            if dtype is DataType.INT64:
                digits = _parse_digits(*_spans_of(raw)) if raw.dtype.kind == "S" else None
                return raw.astype(np.int64) if digits is None else digits
            if dtype is DataType.FLOAT64:
                return raw.astype(np.float64)
            return StringColumn.encode(raw)
        if dtype is DataType.INT64:
            return np.array([int(v) for v in raw], dtype=np.int64)
        if dtype is DataType.FLOAT64:
            return np.array([float(v) for v in raw], dtype=np.float64)
        return StringColumn.encode(list(raw))
    except (ValueError, OverflowError) as exc:
        raise FlatFileError(f"cannot parse field as {dtype.value}: {exc}") from exc


#: ``10.0 ** k``; a float64 holds every integer below ``10 ** 15`` exactly.
_POW10 = 10.0 ** np.arange(15)

#: Digit bytes :func:`_parse_digits` gathers at a time: the block's
#: int64 byte indices (512 KiB) and its digits stay in the L2 cache.
_DIGIT_BLOCK = 1 << 16


def _parse_digits(
    buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray | None:
    """Exact int64 values of the fields ``buf[starts[i] : starts[i] +
    lengths[i]]`` when every one is 1-15 ASCII digits, or ``None`` for
    any other batch (the caller casts it).

    NumPy's ``S``-to-int64 cast runs Python's ``int()`` per value; on
    plain digits the answer is just the decimal value.  Digits are
    right-aligned at each field's end, so for a block of fields one
    gather makes a ``(width, fields)`` matrix whose row ``k`` holds each
    field's digit of weight ``10 ** (width - 1 - k)``, zero where a
    shorter field has none, and one matrix-vector product with the
    powers of ten gives the values — each below ``10 ** 15``, so float64
    arithmetic is exact throughout.  The batch is given up at the first
    block holding a byte that is not a digit.
    """
    n = len(starts)
    if n == 0:
        return None
    shortest, width = int(lengths.min()), int(lengths.max())
    if shortest < 1 or width > len(_POW10):
        return None
    back = np.arange(width, 0, -1, dtype=np.int64)[:, None]  # bytes before the end
    weights = _POW10[width - 1 :: -1].copy()
    out = np.empty(n, dtype=np.int64)
    step = max(1, _DIGIT_BLOCK // width)
    for lo in range(0, n, step):
        lens = lengths[lo : lo + step]
        digits = buf.take(starts[lo : lo + step] + lens - back, mode="wrap")
        digits -= np.uint8(48)  # wraps: every byte but a digit is >= 10
        if shortest < width:
            digits *= back <= lens  # no digit there in a shorter field
        if digits.max() >= 10:
            return None
        np.matmul(weights, digits.astype(np.float64), out=out[lo : lo + step], casting="unsafe")
    return out


def _spans_of(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An ``S`` array's fields as spans of its own bytes: each row is
    its field, then NUL padding."""
    width = raw.dtype.itemsize
    buf = np.ascontiguousarray(raw).view(np.uint8)
    starts = np.arange(0, len(raw) * width, width, dtype=np.int64)
    return buf, starts, np.char.str_len(raw).astype(np.int64)


def parse_single(text: str, dtype: DataType):
    """Parse one scalar field (used by pushdown predicates and baselines)."""
    if dtype is DataType.INT64:
        return int(text)
    if dtype is DataType.FLOAT64:
        return float(text)
    return text
