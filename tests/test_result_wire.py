"""QueryResult paging and JSON wire round-trip invariants."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.result import QueryResult


def make(nrows: int) -> QueryResult:
    return QueryResult(
        ["i", "f", "s"],
        [
            np.arange(nrows, dtype=np.int64),
            np.arange(nrows, dtype=np.float64) / 8,
            np.array([f"v{i}" for i in range(nrows)], dtype=object),
        ],
    )


class TestPaging:
    @given(nrows=st.integers(0, 50), size=st.integers(1, 60))
    def test_pages_partition_the_rows(self, nrows, size):
        result = make(nrows)
        pages = list(result.pages(size))
        assert len(pages) == result.num_pages(size) == max(1, -(-nrows // size))
        assert all(p.num_rows <= size for p in pages)
        assert [r for p in pages for r in p.rows()] == result.rows()

    def test_empty_result_has_one_empty_page(self):
        result = make(0)
        assert result.num_pages(10) == 1
        assert result.page(0, 10).num_rows == 0

    def test_page_bounds_are_checked(self):
        result = make(10)
        with pytest.raises(IndexError):
            result.page(2, 5)
        with pytest.raises(IndexError):
            result.page(-1, 5)
        with pytest.raises(ValueError):
            result.num_pages(0)

    def test_slice_rows_preserves_names_and_dtypes(self):
        sliced = make(10).slice_rows(3, 7)
        assert sliced.names == ["i", "f", "s"]
        assert sliced.num_rows == 4
        assert sliced.columns[0].dtype == np.int64
        assert list(sliced.columns[0]) == [3, 4, 5, 6]


class TestJsonRoundTrip:
    def test_exact_roundtrip_through_strict_json_text(self):
        result = make(17)
        text = json.dumps(result.to_json_dict(), allow_nan=False)
        back = QueryResult.from_json_dict(json.loads(text))
        assert back.names == result.names
        assert [c.dtype.kind for c in back.columns] == ["i", "f", "O"]
        assert back.rows() == result.rows()

    def test_nonfinite_floats_survive_as_string_sentinels(self):
        result = QueryResult(
            ["x"], [np.array([1.5, math.nan, math.inf, -math.inf])]
        )
        payload = result.to_json_dict()
        assert payload["columns"][0] == [1.5, "NaN", "Infinity", "-Infinity"]
        json.dumps(payload, allow_nan=False)  # strict JSON by construction
        back = QueryResult.from_json_dict(payload)
        assert back.columns[0][0] == 1.5
        assert math.isnan(back.columns[0][1])
        assert back.columns[0][2] == math.inf
        assert back.columns[0][3] == -math.inf

    def test_string_column_may_contain_sentinel_lookalikes(self):
        # "NaN" in a *string* column must stay a string after the trip.
        result = QueryResult(
            ["s"], [np.array(["NaN", "Infinity", "plain"], dtype=object)]
        )
        back = QueryResult.from_json_dict(result.to_json_dict())
        assert list(back.columns[0]) == ["NaN", "Infinity", "plain"]
        assert back.columns[0].dtype.kind == "O"

    def test_dtype_tokens_are_the_wire_vocabulary(self):
        payload = make(3).to_json_dict()
        assert payload["dtypes"] == ["int64", "float64", "str"]
        assert payload["num_rows"] == 3

    @given(
        ints=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=20),
        floats=st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            min_size=1,
            max_size=20,
        ),
    )
    def test_property_roundtrip(self, ints, floats):
        n = min(len(ints), len(floats))
        result = QueryResult(
            ["a", "b"],
            [np.array(ints[:n], dtype=np.int64), np.array(floats[:n])],
        )
        text = json.dumps(result.to_json_dict(), allow_nan=False)
        back = QueryResult.from_json_dict(json.loads(text))
        assert back.approx_equal(result)
        assert list(back.columns[0]) == list(result.columns[0])


# --------------------------------------------------------------- the oracle
#
# The per-cell encoder and decoder the column-at-a-time ones replaced, and
# the per-cell ``rows()``.  They live on only here: the wire format did not
# change, so the new code must produce their JSON text byte for byte.


def _oracle_encode_value(v) -> object:
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return "NaN"
        if math.isinf(f):
            return "Infinity" if f > 0 else "-Infinity"
        return f
    return str(v)


def _oracle_dtype(arr: np.ndarray) -> str:
    return "int64" if arr.dtype.kind in "iub" else "float64" if arr.dtype.kind == "f" else "str"


def oracle_to_json_dict(result: QueryResult) -> dict:
    return {
        "names": list(result.names),
        "dtypes": [_oracle_dtype(c) for c in result.columns],
        "columns": [[_oracle_encode_value(v) for v in c] for c in result.columns],
        "num_rows": result.num_rows,
    }


_ORACLE_SPECIALS = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def oracle_decode_column(values: list, dtype: str) -> np.ndarray:
    if dtype == "int64":
        return np.array(values, dtype=np.int64)
    if dtype == "float64":
        return np.array(
            [_ORACLE_SPECIALS.get(v, v) if isinstance(v, str) else v for v in values],
            dtype=np.float64,
        )
    return np.array([str(v) for v in values], dtype=object)


def oracle_rows(result: QueryResult) -> list[tuple]:
    return [tuple(col[i] for col in result.columns) for i in range(result.num_rows)]


def same_cells(a: np.ndarray, b: np.ndarray) -> bool:
    """Identical dtype and values; floats to the bit (``-0.0`` is not
    ``0.0``), except that every NaN is one NaN."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "f":
        return bool(
            np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a) | np.isnan(a), np.signbit(b) | np.isnan(b))
        )
    return a.tolist() == b.tolist()


def _object_array(cells: list) -> np.ndarray:
    arr = np.empty(len(cells), dtype=object)
    arr[:] = cells
    return arr


_FLOATS = st.one_of(
    st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-7,
                     math.nan, math.inf, -math.inf]),
)
_INT64 = st.one_of(
    st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1, 0, -1])
)
_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(["NaN", "Infinity", "-Infinity", ""]))
_MIXED = st.one_of(
    _TEXT, _INT64, _FLOATS, st.booleans(), st.none(),
    st.integers(0, 255).map(np.uint8), st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_), st.text(max_size=3).map(np.str_),
)


def _column(n: int):
    def cells(strategy):
        return st.lists(strategy, min_size=n, max_size=n)

    return st.one_of(
        cells(_INT64).map(lambda v: np.array(v, dtype=np.int64)),
        cells(st.integers(-(2**31), 2**31 - 1)).map(lambda v: np.array(v, dtype=np.int32)),
        cells(st.integers(0, 2**63 - 1)).map(lambda v: np.array(v, dtype=np.uint64)),
        cells(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
        cells(_FLOATS).map(lambda v: np.array(v, dtype=np.float64)),
        cells(st.floats(width=32)).map(lambda v: np.array(v, dtype=np.float32)),
        cells(_TEXT).map(_object_array),
        cells(_TEXT).map(lambda v: np.array(v, dtype="U8")),
        cells(_MIXED).map(_object_array),
    )


@st.composite
def results(draw) -> QueryResult:
    """Zero to four columns of any wire-relevant dtype, zero to twelve rows."""
    n = draw(st.integers(0, 12))
    columns = draw(st.lists(_column(n), max_size=4))
    return QueryResult([f"c{i}" for i in range(len(columns))], columns)


class TestColumnAtATimeEqualsPerCellOracle:
    @given(result=results())
    def test_json_text_is_byte_identical(self, result):
        want = json.dumps(oracle_to_json_dict(result), allow_nan=False)
        assert json.dumps(result.to_json_dict(), allow_nan=False) == want

    @given(result=results())
    def test_decoding_equals_the_oracle_and_roundtrips_exactly(self, result):
        payload = json.loads(json.dumps(result.to_json_dict(), allow_nan=False))
        back = QueryResult.from_json_dict(payload)
        assert back.names == result.names
        for got, values, dtype, sent in zip(
            back.columns, payload["columns"], payload["dtypes"], result.columns
        ):
            assert same_cells(got, oracle_decode_column(values, dtype))
            if sent.dtype.kind in "iub":
                assert got.tolist() == sent.astype(np.int64).tolist()
            elif sent.dtype.kind == "f":
                assert same_cells(got, sent.astype(np.float64))
            elif sent.dtype.kind == "U":
                assert got.tolist() == sent.tolist()

    @given(result=results())
    def test_rows_compare_equal_to_per_cell_indexing(self, result):
        got, want = result.rows(), oracle_rows(result)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert len(g) == len(w)
            assert all(a == b or (a != a and b != b) for a, b in zip(g, w))
        assert repr(result) == "\n".join(
            [" | ".join(result.names)]
            + [
                " | ".join(
                    f"{v:.6g}" if isinstance(v, (float, np.floating)) else str(v)
                    for v in row
                )
                for row in want[:20]
            ]
        )

    def test_empty_and_zero_column_results(self):
        for result in (QueryResult([], []), make(0)):
            payload = result.to_json_dict()
            assert payload == oracle_to_json_dict(result)
            back = QueryResult.from_json_dict(json.loads(json.dumps(payload)))
            assert back.names == result.names
            assert back.num_rows == 0 and back.rows() == []

    def test_finite_float_column_skips_the_specials_path(self):
        # Cells of a finite column are the floats themselves, never strings.
        payload = QueryResult(["x"], [np.array([1.5, -0.0, 5e-324])]).to_json_dict()
        assert payload["columns"][0] == [1.5, -0.0, 5e-324]
        assert math.copysign(1.0, payload["columns"][0][1]) == -1.0
        assert all(type(v) is float for v in payload["columns"][0])
