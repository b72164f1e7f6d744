"""Tests for typed parsing and CSV writing (round-trip fidelity)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlatFileError
from repro.flatfile.parser import ParseStats, parse_fields, parse_single
from repro.flatfile.schema import DataType
from repro.flatfile.dialects import DelimitedAdapter, as_text
from repro.flatfile.tokenizer import tokenize_bytes
from repro.flatfile.writer import format_value, write_csv, write_rows
from repro.strings import StringColumn


class TestParseFields:
    def test_ints(self):
        arr = parse_fields(["1", "-2", "30"], DataType.INT64)
        assert arr.dtype == np.int64
        assert list(arr) == [1, -2, 30]

    def test_floats(self):
        arr = parse_fields(["1.5", "-2e3"], DataType.FLOAT64)
        assert arr.dtype == np.float64
        assert list(arr) == [1.5, -2000.0]

    def test_strings(self):
        column = parse_fields(["x", "y"], DataType.STRING)
        assert isinstance(column, StringColumn)
        assert column.decode().tolist() == ["x", "y"]

    def test_bad_value_raises_with_context(self):
        with pytest.raises(FlatFileError, match="int64"):
            parse_fields(["1", "oops"], DataType.INT64)

    def test_stats_counted(self):
        stats = ParseStats()
        parse_fields(["1", "2", "3"], DataType.INT64, stats)
        parse_fields(["4"], DataType.INT64, stats)
        assert stats.values_parsed == 4

    def test_empty_input(self):
        assert len(parse_fields([], DataType.INT64)) == 0


class TestParseSingle:
    def test_types(self):
        assert parse_single("5", DataType.INT64) == 5
        assert parse_single("5.5", DataType.FLOAT64) == 5.5
        assert parse_single("abc", DataType.STRING) == "abc"


class TestWriter:
    def test_round_trip_ints(self, tmp_path):
        cols = [np.array([1, 2, 3], dtype=np.int64), np.array([4, 5, 6], dtype=np.int64)]
        path = write_csv(tmp_path / "t.csv", cols)
        text = path.read_text()
        assert text == "1,4\n2,5\n3,6\n"

    def test_round_trip_mixed(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            [np.array([1, 2]), np.array([1.5, 2.5]), np.array(["a", "b"], dtype=object)],
        )
        r = tokenize_bytes(path.read_bytes(), DelimitedAdapter(), 3, [0, 1, 2])
        assert parse_fields(r.fields[0], DataType.INT64).tolist() == [1, 2]
        assert parse_fields(r.fields[1], DataType.FLOAT64).tolist() == [1.5, 2.5]
        assert list(as_text(r.fields[2].values())) == ["a", "b"]

    def test_header(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [np.array([1])], header=["x"])
        assert path.read_text() == "x\n1\n"

    def test_header_arity_checked(self, tmp_path):
        with pytest.raises(FlatFileError):
            write_csv(tmp_path / "t.csv", [np.array([1])], header=["x", "y"])

    def test_ragged_rejected(self, tmp_path):
        with pytest.raises(FlatFileError, match="rows"):
            write_csv(tmp_path / "t.csv", [np.array([1]), np.array([1, 2])])

    def test_no_columns_rejected(self, tmp_path):
        with pytest.raises(FlatFileError):
            write_csv(tmp_path / "t.csv", [])

    def test_write_rows(self, tmp_path):
        path = write_rows(tmp_path / "t.csv", [(1, "a"), (2, "b")])
        assert path.read_text() == "1,a\n2,b\n"

    def test_format_value_floats_round_trip(self):
        for v in (0.1, 1e-17, 123456.789, -3.0):
            assert float(format_value(v)) == v


class TestWriteParseRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        ints=st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=50),
        floats=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50
        ),
    )
    def test_numeric_round_trip(self, ints, floats, tmp_path_factory):
        n = min(len(ints), len(floats))
        cols = [
            np.array(ints[:n], dtype=np.int64),
            np.array(floats[:n], dtype=np.float64),
        ]
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        write_csv(path, cols)
        r = tokenize_bytes(path.read_bytes(), DelimitedAdapter(), 2, [0, 1])
        assert parse_fields(r.fields[0], DataType.INT64).tolist() == cols[0].tolist()
        back = parse_fields(r.fields[1], DataType.FLOAT64)
        assert back.tolist() == cols[1].tolist()
