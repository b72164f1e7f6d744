"""Typed parsing of tokenized fields into NumPy arrays.

Tokenization (locating field boundaries) and parsing (converting field text
into typed values) are separate costs in the paper's analysis, and they are
separate functions here.  ``parse_fields`` is the single choke point where
raw field text becomes columnar arrays, so the per-value conversion cost — the
thing a DBMS pays once at load time and a scripting tool pays on every
query — is centralised and measurable.  A STRING column leaves it as a
:class:`~repro.strings.StringColumn` (dictionary codes), its only form
until the executor emits result rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import FlatFileError
from repro.flatfile.schema import DataType
from repro.strings import StringColumn


@dataclass
class ParseStats:
    """Counter of typed conversions performed."""

    values_parsed: int = 0

    def merge(self, other: "ParseStats") -> None:
        self.values_parsed += other.values_parsed


def parse_fields(
    raw: Sequence[str] | np.ndarray,
    dtype: DataType,
    stats: ParseStats | None = None,
) -> np.ndarray | StringColumn:
    """Convert raw field text into a typed NumPy array (numbers) or a
    :class:`~repro.strings.StringColumn` (strings).

    Raises :class:`FlatFileError` on the first unparseable value, naming
    the value — silent coercion would corrupt query answers.  An integer
    outside int64 is unparseable as int64 too, so the widening ladder
    takes the column to float64.

    When ``raw`` is already a NumPy array (the vectorized kernel's and
    the selective-read gather's output), the conversion is one bulk
    ``astype`` over the whole column.  An ``S`` array (ASCII field
    bytes) casts straight to int64/float64 with no ``str`` detour; a
    STRING column encodes its distinct values, which alone become
    ``str``.  NumPy's ``S``- and ``U``-to-number casts apply the same
    Python-level ``int()``/``float()`` parsing rules as the per-value
    loop on ASCII text (sign, whitespace, ``_`` separators,
    ``nan``/``inf``, exponents, overflow past int64), so acceptance,
    values and the widening ladder's trigger points are identical —
    only the per-value interpreter dispatch disappears.  An ``S`` batch
    of plain unsigned decimals (the common integer column) skips even
    that cast: see :func:`_parse_digits`.
    """
    if stats is not None:
        stats.values_parsed += len(raw)
    try:
        if isinstance(raw, np.ndarray) and raw.dtype.kind in ("S", "U", "O"):
            if dtype is DataType.INT64:
                digits = _parse_digits(raw)
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
_POW10 = 10.0 ** np.arange(16)
_POW10_DESC = _POW10[::-1].copy()  # its last ``w`` entries weigh ``w`` digits


def _parse_digits(raw: np.ndarray) -> np.ndarray | None:
    """Exact int64 values of an ``S`` batch whose every field is 1-15
    ASCII digits, or ``None`` for any other batch (the caller casts it).

    NumPy's ``S``-to-int64 cast runs Python's ``int()`` per value; on
    plain digits the answer is just the decimal value, which one
    matrix product computes for the whole batch.  Each row of the
    NUL-padded byte matrix is its digits followed by padding, so the
    weighted sum of a row's digits is its value times ``10 ** pad``
    — below ``10 ** 15``, so float64 arithmetic is exact throughout.
    """
    n, width = len(raw), raw.dtype.itemsize
    if raw.dtype.kind != "S" or n == 0 or width >= len(_POW10):
        return None
    chars = np.ascontiguousarray(raw).view(np.uint8).reshape(n, width)
    digits = chars - np.uint8(48)  # wraps: every non-digit byte is >= 10
    is_digit = digits < 10
    lengths = np.char.str_len(raw)  # trailing NULs stripped
    # Only digits and NUL padding, and as many digits as each row is
    # long: then no row is empty or holds a NUL before a digit.
    if (
        not (is_digit | (chars == 0)).all()
        or np.count_nonzero(is_digit) != lengths.sum()
        or lengths.min() == 0
    ):
        return None
    weights = _POW10_DESC[len(_POW10) - width :]
    scaled = (digits * is_digit).astype(np.float64) @ weights
    return (scaled / _POW10[width - lengths]).astype(np.int64)


def parse_single(text: str, dtype: DataType):
    """Parse one scalar field (used by pushdown predicates and baselines)."""
    if dtype is DataType.INT64:
        return int(text)
    if dtype is DataType.FLOAT64:
        return float(text)
    return text
