"""Typed parsing of tokenized fields into NumPy arrays.

Tokenization (locating field boundaries) and parsing (converting field text
into typed values) are separate costs in the paper's analysis, and they are
separate functions here.  ``parse_fields`` is the single choke point where
raw strings become columnar arrays, so the per-value conversion cost — the
thing a DBMS pays once at load time and a scripting tool pays on every
query — is centralised and measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import FlatFileError
from repro.flatfile.schema import DataType


@dataclass
class ParseStats:
    """Counter of typed conversions performed."""

    values_parsed: int = 0

    def merge(self, other: "ParseStats") -> None:
        self.values_parsed += other.values_parsed


def parse_fields(
    raw: Sequence[str],
    dtype: DataType,
    stats: ParseStats | None = None,
) -> np.ndarray:
    """Convert raw field strings into a typed NumPy array.

    Raises :class:`FlatFileError` on the first unparseable value, naming
    the value — silent coercion would corrupt query answers.  An integer
    outside int64 is unparseable as int64 too, so the widening ladder
    takes the column to float64.

    When ``raw`` is already a NumPy string array (the vectorized
    tokenization kernel's output), the conversion is one bulk ``astype``
    over the whole column.  NumPy's str→int64/float64 casts apply the
    same Python-level ``int()``/``float()`` parsing rules as the per-value
    loop, so acceptance, values and the widening ladder's trigger points
    are identical — only the per-value interpreter dispatch disappears.
    """
    if stats is not None:
        stats.values_parsed += len(raw)
    try:
        if isinstance(raw, np.ndarray) and raw.dtype.kind in ("U", "O"):
            if dtype is DataType.INT64:
                return raw.astype(np.int64)
            if dtype is DataType.FLOAT64:
                return raw.astype(np.float64)
            return raw.astype(object)
        if dtype is DataType.INT64:
            return np.array([int(v) for v in raw], dtype=np.int64)
        if dtype is DataType.FLOAT64:
            return np.array([float(v) for v in raw], dtype=np.float64)
        return np.array(list(raw), dtype=object)
    except (ValueError, OverflowError) as exc:
        raise FlatFileError(f"cannot parse field as {dtype.value}: {exc}") from exc


def parse_single(text: str, dtype: DataType):
    """Parse one scalar field (used by pushdown predicates and baselines)."""
    if dtype is DataType.INT64:
        return int(text)
    if dtype is DataType.FLOAT64:
        return float(text)
    return text
