"""Property tests for the dialect layer (Hypothesis).

Two families, both riding random tables:

* **write → attach → query round-trip**: any table rendered by an
  adapter and read back through the engine yields exactly the logical
  values that went in — including non-ASCII text, embedded delimiters /
  quotes / newlines where the dialect can represent them, CRLF line
  endings, and blank-line runs;
* **positional-map invariants**: every span a tokenization pass learns
  lands on an encoded-field start/end — slicing the bytes at the recorded
  offsets and decoding reproduces the field value, under every
  span-bearing adapter (the dialect loop frames pure-ASCII text only).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, NoDBEngine
from repro.errors import FlatFileError
from repro.flatfile.dialects import (
    DelimitedAdapter,
    FixedWidthAdapter,
    JsonLinesAdapter,
    QuotedCsvAdapter,
    TsvAdapter,
)
from repro.flatfile.tokenizer import tokenize_dialect
from repro.flatfile.writer import write_csv

# Letters that can never make a value parse as a number (no digits, and
# none of n/a/i/f/e that could spell nan/inf/1e5), ASCII and beyond.
_SAFE_LETTERS = "bcdghjklmpqrstuvwxyzßéあ素"

#: Extra characters only the escaping/quoting dialects can represent.
_HARD_CHARS = ',;"\t\n\r\\| '


def _string_values(hard: bool):
    alphabet = _SAFE_LETTERS + (_HARD_CHARS if hard else "")
    # Leading safe letter keeps the value non-numeric and non-empty;
    # trailing safe letter keeps fixed-width-style padding unambiguous.
    return st.text(alphabet=alphabet, max_size=6).map(
        lambda s: "v" + s + "w"
    )


def _column(hard: bool):
    return st.one_of(
        st.lists(st.integers(-10**6, 10**6), min_size=1),
        st.lists(st.integers(-8000, 8000).map(lambda n: n / 8), min_size=1),
        st.lists(_string_values(hard), min_size=1),
    )


def tables(hard: bool):
    """Random (columns, nrows) with equal-length columns."""

    def resize(cols_and_rows):
        cols, nrows = cols_and_rows
        return [list(col[i % len(col)] for i in range(nrows)) for col in cols]

    return st.tuples(
        st.lists(_column(hard), min_size=1, max_size=3),
        st.integers(1, 10),
    ).map(resize)


SPAN_DIALECTS = {
    "csv": lambda: DelimitedAdapter(","),
    "quoted-csv": lambda: QuotedCsvAdapter(","),
    "tsv": lambda: TsvAdapter(),
}
HARD_OK = {"quoted-csv", "tsv", "jsonl"}


def render(tmp_path, columns, dialect):
    """Write ``columns`` in ``dialect``; return (path, attach kwargs)."""
    if dialect == "fixed-width":
        texts = [
            [_fmt(v) for v in col] for col in columns
        ]
        widths = tuple(max(max(len(t) for t in col), 1) for col in texts)
        adapter = FixedWidthAdapter(widths)
        kwargs = {"format": "fixed-width", "fixed_widths": widths}
    elif dialect == "jsonl":
        adapter = JsonLinesAdapter()
        kwargs = {"format": "jsonl"}
    elif dialect == "csv":
        adapter = DelimitedAdapter(",")
        kwargs = {}
    else:
        adapter = SPAN_DIALECTS[dialect]()
        kwargs = {"format": dialect}
    path = tmp_path / f"t-{dialect.replace('-', '')}.dat"
    write_csv(path, columns, adapter=adapter)
    return path, kwargs


def _fmt(value):
    from repro.flatfile.writer import format_value

    return format_value(value)


def _expected_cell(value):
    if isinstance(value, float):
        return np.float64(value)
    if isinstance(value, int):
        return np.int64(value)
    return value


def assert_round_trip(columns, dialect):
    # a fresh scratch dir per generated example (Hypothesis re-enters the
    # test body without resetting function-scoped fixtures)
    with tempfile.TemporaryDirectory(prefix="repro-dialect-") as tmp:
        path, kwargs = render(Path(tmp), columns, dialect)
        names = [f"a{i + 1}" for i in range(len(columns))]
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        try:
            engine.attach("t", path, **kwargs)
            result = engine.query(f"select {', '.join(names)} from t")
            got = result.rows()
            expected = [
                tuple(_expected_cell(col[i]) for col in columns)
                for i in range(len(columns[0]))
            ]
            assert got == expected
        finally:
            engine.close()


class TestRoundTrip:
    @settings(max_examples=20)
    @given(columns=tables(hard=False))
    @pytest.mark.parametrize(
        "dialect", ["csv", "quoted-csv", "tsv", "jsonl", "fixed-width"]
    )
    def test_safe_values_every_dialect(self, dialect, columns):
        assert_round_trip(columns, dialect)

    @settings(max_examples=20)
    @given(columns=tables(hard=True))
    @pytest.mark.parametrize("dialect", ["quoted-csv", "tsv", "jsonl"])
    def test_hard_values_escaping_dialects(self, dialect, columns):
        assert_round_trip(columns, dialect)


class TestEdgeFraming:
    @pytest.mark.parametrize(
        "dialect,text",
        [
            ("csv", "1,vx\r\n2,vy\r\n"),
            ("tsv", "1\tvx\r\n2\tvy\r\n"),
            ("quoted-csv", '1,"vx"\r\n2,vy\r\n'),
        ],
    )
    def test_crlf_round_trip(self, tmp_path, dialect, text):
        path = tmp_path / "crlf.dat"
        path.write_bytes(text.encode("utf-8"))
        engine = NoDBEngine()
        try:
            kwargs = {} if dialect == "csv" else {"format": dialect}
            engine.attach("t", path, **kwargs)
            assert engine.query("select a2 from t").rows() == [("vx",), ("vy",)]
        finally:
            engine.close()

    @pytest.mark.parametrize("dialect", ["csv", "quoted-csv", "tsv", "jsonl"])
    def test_blank_runs_skipped(self, tmp_path, dialect):
        rows = {"csv": "1,2", "quoted-csv": '"1",2', "tsv": "1\t2",
                "jsonl": "[1, 2]"}[dialect]
        path = tmp_path / "blank.dat"
        path.write_text(f"\n\n{rows}\n\n\n{rows}\n\n")
        engine = NoDBEngine()
        try:
            kwargs = {} if dialect == "csv" else {"format": dialect}
            engine.attach("t", path, **kwargs)
            assert engine.query("select a1 from t").rows() == [(1,), (1,)]
        finally:
            engine.close()

    @pytest.mark.parametrize("dialect", ["csv", "quoted-csv", "tsv"])
    def test_ragged_rows_raise(self, tmp_path, dialect):
        rows = {"csv": ("1,2", "3"), "quoted-csv": ('"1",2', "3"),
                "tsv": ("1\t2", "3")}[dialect]
        path = tmp_path / "ragged.dat"
        path.write_text("\n".join(rows) + "\n")
        engine = NoDBEngine()
        try:
            kwargs = {} if dialect == "csv" else {"format": dialect}
            engine.attach("t", path, **kwargs)
            with pytest.raises(FlatFileError):
                engine.query("select a2 from t")
        finally:
            engine.close()


class TestPositionalMapInvariants:
    @settings(max_examples=20)
    @given(columns=tables(hard=True))
    @pytest.mark.parametrize("dialect", ["quoted-csv", "tsv"])
    def test_spans_land_on_encoded_fields(self, dialect, columns):
        adapter = SPAN_DIALECTS[dialect]()
        rows = list(zip(*[[_fmt(v) for v in col] for col in columns]))
        text = "".join(adapter.encode_row(list(r)) + "\n" for r in rows)
        self._check_spans(adapter, text, rows)

    @settings(max_examples=20)
    @given(columns=tables(hard=False))
    def test_spans_fixed_width(self, columns):
        texts = [[_fmt(v) for v in col] for col in columns]
        widths = tuple(max(max(len(t) for t in col), 1) for col in texts)
        adapter = FixedWidthAdapter(widths)
        rows = list(zip(*texts))
        text = "".join(adapter.encode_row(list(r)) + "\n" for r in rows)
        self._check_spans(adapter, text, rows)

    @staticmethod
    def _check_spans(adapter, text, rows):
        from repro.flatfile.positions import PositionalMap

        ncols = len(rows[0])
        pmap = PositionalMap()
        result = tokenize_dialect(
            text,
            adapter,
            ncols=ncols,
            needed=list(range(ncols)),
            positional_map=pmap,
            learn=True,
        )
        # the pass itself returns the logical values
        for col in range(ncols):
            assert result.fields[col] == [r[col] for r in rows]
        # the row count is the framing's
        starts, _ends = adapter.row_bounds(text)
        assert pmap.nrows == len(starts)
        if not text.isascii():
            # The loop's spans are character offsets and the map's are
            # bytes: only pure-ASCII text, where they coincide, is framed.
            assert pmap.frame is None
            return
        # every learned span slices the bytes to the encoded field, which
        # decodes back to the logical value
        data = text.encode("utf-8")
        for col in range(ncols):
            assert pmap.knows_column(col)
            s, e = pmap.slices_for(col)
            for row_idx, r in enumerate(rows):
                raw = data[int(s[row_idx]) : int(e[row_idx])].decode("utf-8")
                assert adapter.decode_field(raw) == r[col]
