"""Schema representation and automatic schema detection (paper section 5.6).

When the user links a flat file to the engine, a schema must exist before
the first query can be planned.  The paper's strategy is the simple one we
implement here: each flat file maps to one table, tokenize a sample of rows,
each field becomes an attribute, and the type of every attribute is the
narrowest of ``int64`` / ``float64`` / ``str`` that accepts all sampled
values.  Inference happens once, lazily, the first time a query touches the
file — never as an explicit user step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SchemaInferenceError


class DataType(enum.Enum):
    """Logical column types supported by the engine."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "str"

    @property
    def numpy_dtype(self) -> np.dtype:
        """The array dtype of a numeric column.  A STRING column is no
        NumPy array but a :class:`~repro.strings.StringColumn`."""
        if self is DataType.INT64:
            return np.dtype(np.int64)
        if self is DataType.FLOAT64:
            return np.dtype(np.float64)
        raise ValueError("a STRING column has no NumPy dtype")

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT64, DataType.FLOAT64)


#: The widening ladder for values an inferred type cannot represent:
#: int64 → float64 → str.  Shared by the loader and the pushdown
#: predicates, so every code path walks the same ladder.
WIDENS_TO: dict[DataType, DataType] = {
    DataType.INT64: DataType.FLOAT64,
    DataType.FLOAT64: DataType.STRING,
}

#: Rank of each type on the ladder (higher = wider); lets mergers of
#: independently-widened part-file schemas pick the widest outcome.
WIDTH_RANK: dict[DataType, int] = {
    DataType.INT64: 0,
    DataType.FLOAT64: 1,
    DataType.STRING: 2,
}


def widest(dtypes) -> DataType:
    """The widest of the given types under the widening ladder."""
    return max(dtypes, key=WIDTH_RANK.__getitem__)


@dataclass(frozen=True)
class ColumnSchema:
    """Name and type of one attribute of a flat-file table."""

    name: str
    dtype: DataType


@dataclass
class TableSchema:
    """Ordered attribute list of one table (equivalently: one flat file)."""

    columns: list[ColumnSchema] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaInferenceError(f"duplicate column names in schema: {names}")

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def index_of(self, name: str) -> int:
        """Return the position of column ``name`` (case-insensitive)."""
        lowered = name.lower()
        for i, col in enumerate(self.columns):
            if col.name.lower() == lowered:
                return i
        raise KeyError(name)

    def column(self, name: str) -> ColumnSchema:
        return self.columns[self.index_of(name)]

    def dtype_of(self, name: str) -> DataType:
        return self.column(name).dtype


def classify_value(text: str) -> DataType:
    """Return the narrowest type that parses ``text``.

    Empty fields classify as STRING: the engine has no NULL concept (the
    paper's workloads do not need one) so an empty field forces the column
    to be textual rather than silently inventing a sentinel.
    """
    if not text:
        return DataType.STRING
    try:
        int(text)
        return DataType.INT64
    except ValueError:
        pass
    try:
        float(text)
        return DataType.FLOAT64
    except ValueError:
        return DataType.STRING


def classify_column(values) -> DataType:
    """The narrowest type accepting *every* value, in two bulk casts.

    Equivalent to folding :func:`classify_value` over the column with
    :func:`unify_types`, but vectorized: NumPy's str→int64/float64 casts
    apply the same ``int()``/``float()`` acceptance rules per element, so
    one whole-column ``astype`` replaces the per-value classify loop
    (empty fields fail both casts and classify as STRING, exactly like
    the scalar rule).
    """
    arr = np.asarray(values if len(values) else [""], dtype=object)
    try:
        arr.astype(np.int64)
        return DataType.INT64
    except ValueError:
        pass
    except OverflowError:
        # A value that is a valid int but exceeds int64: the bulk cast
        # cannot tell whether *other* values are ints at all, so fall
        # back to the exact per-value fold for this (rare) column.
        col_type = classify_value(str(arr[0]))
        for v in arr[1:]:
            col_type = unify_types(col_type, classify_value(str(v)))
            if col_type is DataType.STRING:
                break
        return col_type
    try:
        arr.astype(np.float64)
        return DataType.FLOAT64
    except ValueError:
        return DataType.STRING


_WIDENING = {
    (DataType.INT64, DataType.FLOAT64): DataType.FLOAT64,
    (DataType.FLOAT64, DataType.INT64): DataType.FLOAT64,
}


def unify_types(a: DataType, b: DataType) -> DataType:
    """Return the narrowest type accepting values of both ``a`` and ``b``."""
    if a is b:
        return a
    return _WIDENING.get((a, b), DataType.STRING)


def default_column_names(n: int) -> list[str]:
    """Paper-style default attribute names: a1, a2, ... aN."""
    return [f"a{i + 1}" for i in range(n)]


def infer_schema(
    sample_rows: list[list[str]],
    header: list[str] | None = None,
) -> TableSchema:
    """Infer a :class:`TableSchema` from tokenized sample rows.

    Parameters
    ----------
    sample_rows:
        Rows already split into raw field strings (no type conversion).
        All rows must have the same arity; a ragged sample is an error the
        user should hear about rather than a guess.
    header:
        Optional column names from a header line.  When absent the paper's
        ``a1..aN`` convention is used.
    """
    if not sample_rows:
        raise SchemaInferenceError("cannot infer a schema from an empty sample")
    width = len(sample_rows[0])
    if width == 0:
        raise SchemaInferenceError("sample rows have zero fields")
    for i, row in enumerate(sample_rows):
        if len(row) != width:
            raise SchemaInferenceError(
                f"ragged sample: row 0 has {width} fields but row {i} has {len(row)}"
            )
    names = header if header is not None else default_column_names(width)
    if len(names) != width:
        raise SchemaInferenceError(
            f"header has {len(names)} names but rows have {width} fields"
        )
    types = [
        classify_column([row[col] for row in sample_rows])
        for col in range(width)
    ]
    return TableSchema([ColumnSchema(n, t) for n, t in zip(names, types)])


def merge_schemas(base: TableSchema, other: TableSchema) -> TableSchema:
    """Unify two part-file schemas of one multi-file table.

    Part files must agree on shape — same column count, same names
    (case-insensitive; headerless parts all get ``a1..aN`` so they agree
    by construction) — while per-column types unify to the widest of the
    two under the shared widening ladder.  The base's casing wins.
    """
    if len(base) != len(other):
        raise SchemaInferenceError(
            f"part files disagree on column count: {len(base)} vs {len(other)}"
        )
    columns = []
    for b, o in zip(base.columns, other.columns):
        if b.name.lower() != o.name.lower():
            raise SchemaInferenceError(
                f"part files disagree on column names: {b.name!r} vs {o.name!r}"
            )
        columns.append(ColumnSchema(b.name, widest([b.dtype, o.dtype])))
    return TableSchema(columns)


def looks_like_header(first_row: list[str], second_row: list[str] | None) -> bool:
    """Heuristic header detection.

    A first row is treated as a header when none of its fields parse as
    numbers while the following row has at least one numeric field.  This
    matches how the paper's CSV dumps (pure integer tables, no header) and
    ordinary exported CSVs (textual header over numeric data) both come out
    right without user input.
    """
    if second_row is None:
        return False
    first_types = [classify_value(v) for v in first_row]
    if any(t is not DataType.STRING for t in first_types):
        return False
    second_types = [classify_value(v) for v in second_row]
    return any(t is not DataType.STRING for t in second_types)
