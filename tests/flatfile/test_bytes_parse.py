"""Numbers straight from raw bytes: the ``S`` route equals the ``str`` route.

On pure-ASCII input the bulk gather hands ``parse_fields`` the packed
``S`` byte matrix, and fields become ``str`` only where a string is the
answer.  These tests pin that the shortcut changes nothing observable:
NumPy's ``S`` casts accept, reject and widen exactly like its ``U`` casts
and Python's ``int()``/``float()``; dialect decoding of byte batches
matches decoding of strings; and no ``bytes`` ever reaches an answer —
through quoted CSV, TSV escapes, fixed-width padding and NUL repair.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CSVEngine, EngineConfig, NoDBEngine
from repro.core.loader import parse_widening
from repro.errors import FlatFileError
from repro.flatfile.dialects import (
    DelimitedAdapter,
    FixedWidthAdapter,
    QuotedCsvAdapter,
    TsvAdapter,
    as_text,
)
from repro.flatfile.parser import ParseStats, _parse_digits, parse_fields
from repro.flatfile.schema import ColumnSchema, DataType, TableSchema
from repro.flatfile.tokenizer import FieldSpans, bulk_extract_fields, tokenize_bytes
from repro.strings import StringColumn

#: Field text the int/float parsers treat specially, plus near misses.
TRICKY = [
    "0", "-0", "+7", " 42 ", "\t-3\t", "1_000", "1__0", "_1", "1_",
    "1.5", "-.5", "5.", "1e5", "1E-5", "-2.5e+3", "1e_5", "1e400",
    "nan", "NaN", "-nan", "inf", "-Infinity", "+inf", "infinity",
    "9223372036854775807", "-9223372036854775808",
    "9223372036854775808", "-9223372036854775809", "1" * 30,
    "", " ", "abc", "0x10", "1.0.0", "+-1", "1 2", "7\x00", "\x007",
    "a\x00", "\x00\x00",
]

ascii_fields = st.one_of(
    st.sampled_from(TRICKY),
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789_+-.eEnaifINFty \t\x00", max_size=10),
)


def gathered(texts: list[str]) -> np.ndarray:
    """``texts`` through the bulk gather, as the kernel would hand them."""
    data = "".join(texts).encode("ascii")
    lengths = np.array([len(t) for t in texts], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)
    return bulk_extract_fields(data, starts, lengths)


def outcome(parse):
    try:
        return parse()
    except (FlatFileError, ValueError, OverflowError):
        return "raised"


def python_reference(texts: list[str], dtype: DataType):
    if dtype is DataType.INT64:
        return np.array([int(t) for t in texts], dtype=np.int64)
    if dtype is DataType.FLOAT64:
        return np.array([float(t) for t in texts], dtype=np.float64)
    return np.array(texts, dtype=object)


def same(a, b) -> bool:
    if isinstance(a, StringColumn):
        a = a.decode()
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if a.dtype != b.dtype:
        return False
    if a.dtype == object:
        return all(isinstance(x, str) for x in a) and a.tolist() == b.tolist()
    return bool(np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))


@settings(max_examples=300, deadline=None)
@given(st.lists(ascii_fields, min_size=1, max_size=12))
def test_bytes_str_and_python_parse_agree(texts):
    """S, U and Python int()/float() agree on every value or on raising."""
    raw_s = gathered(texts)
    raw_u = as_text(raw_s)
    if any(t.endswith("\x00") for t in texts):
        assert raw_s.dtype == object  # NUL repair: exact str, never bytes
    else:
        assert raw_s.dtype.kind == "S" and raw_u.dtype.kind == "U"
    for dtype in (DataType.INT64, DataType.FLOAT64, DataType.STRING):
        ref = outcome(lambda: python_reference(texts, dtype))
        got_s = outcome(lambda: parse_fields(raw_s, dtype))
        got_u = outcome(lambda: parse_fields(raw_u, dtype))
        assert same(got_s, ref), (dtype, texts, got_s, ref)
        assert same(got_u, ref), (dtype, texts, got_u, ref)


def spanned(texts: list[str], filler: bytes) -> FieldSpans:
    """``texts`` as spans of one buffer, the way the kernel hands them to
    the parser: each field with a ``filler`` byte on either side."""
    data, starts, lengths = filler, [], []
    for t in texts:
        starts.append(len(data))
        lengths.append(len(t))
        data += t.encode("ascii") + filler
    return FieldSpans(data, np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.text(alphabet="0123456789", min_size=1, max_size=19), min_size=1),
    st.one_of(st.none(), st.sampled_from(TRICKY)),
    st.integers(min_value=0, max_value=12),
    st.sampled_from([b",", b"\n", b"\x00", b"7"]),
)
def test_plain_digit_batches_parse_exactly(texts, intruder, at, filler):
    """The span digit parser equals ``int()``, and steps aside (the cast
    decides) for every batch it does not cover: a field other than 1-15
    plain digits anywhere in it.  Bytes around the spans — a NUL, or a
    digit that would be a field's 16th — are never read into a value."""
    if intruder is not None:
        texts = texts[:at] + [intruder] + texts[at:]
    spans = spanned(texts, filler)
    plain = all(t and set(t) <= set("0123456789") and len(t) <= 15 for t in texts)
    assert (_parse_digits(spans.buf, spans.starts, spans.lengths) is not None) == plain
    # A strided view of the spans parses like its copy.
    strided = FieldSpans(spans.data, spans.starts[::-2], spans.lengths[::-2])
    for dtype in (DataType.INT64, DataType.FLOAT64):
        ref = outcome(lambda: python_reference(texts, dtype))
        got = outcome(lambda: parse_fields(spans, dtype))
        assert same(got, ref), (dtype, texts, got, ref)
        ref = outcome(lambda: python_reference(texts[::-2], dtype))
        got = outcome(lambda: parse_fields(strided, dtype))
        assert same(got, ref), (dtype, texts[::-2], got, ref)


@pytest.mark.parametrize(
    "text, widened",
    [
        ("9223372036854775808", DataType.FLOAT64),  # past int64: widen
        ("1.5", DataType.FLOAT64),
        ("1e400", DataType.FLOAT64),  # float("1e400") is inf
        ("x1", DataType.STRING),
    ],
)
def test_widening_ladder_triggers_on_bytes(text, widened):
    raw = gathered(["1", text, "-2"])
    assert raw.dtype.kind == "S"
    entry = SimpleNamespace(
        schema=TableSchema([ColumnSchema("c", DataType.INT64)]), zone_maps=None, table=None
    )
    out = parse_widening(entry, 0, raw, ParseStats())
    assert entry.schema.columns[0].dtype is widened
    if isinstance(out, StringColumn):
        out = out.decode()
    assert out.tolist() == python_reference(["1", text, "-2"], widened).tolist()


def test_string_column_from_bytes_is_str():
    column = parse_fields(gathered(["ab", "", "c d"]), DataType.STRING)
    assert isinstance(column, StringColumn)
    out = column.decode()
    assert out.dtype == object
    assert all(isinstance(v, str) for v in out)
    assert out.tolist() == ["ab", "", "c d"]


# ---------------------------------------------------------------- dialects


def test_nul_repair_returns_only_str():
    data = b"ab\x00cd"
    out = bulk_extract_fields(data, np.array([0, 3]), np.array([3, 2]))
    assert out.dtype == object
    assert out.tolist() == ["ab\x00", "cd"]
    assert all(isinstance(v, str) for v in out)


def test_nul_audit_is_exact_on_multi_byte_fields():
    """Byte lengths are audited before the decode: a multi-byte field
    ending in NUL is re-sliced whole, any other decodes in bulk."""
    data = "é\x00,東京,ß".encode("utf-8")
    starts, lengths = np.array([0, 4, 11]), np.array([3, 6, 2])
    out = bulk_extract_fields(data, starts, lengths)
    assert out.tolist() == ["é\x00", "東京", "ß"]
    clean = bulk_extract_fields(data, starts[1:], lengths[1:])
    assert clean.dtype.kind == "U"
    assert clean.tolist() == ["東京", "ß"]


def test_tsv_escape_in_byte_batch():
    adapter = TsvAdapter()
    plain = np.array([b"a", b"b"])
    assert adapter.decode_many(plain) is plain  # untouched bytes stay bytes
    out = adapter.decode_many(np.array([b"a\\tb", b"c"]))
    assert out.tolist() == ["a\tb", "c"]
    assert all(isinstance(v, str) for v in out)
    r = tokenize_bytes(b"x\\\\y\t1\nz\t2\n", adapter, 2, [0, 1])
    assert list(as_text(r.fields[0].values())) == ["x\\y", "z"]
    assert r.fields[1].values().dtype.kind == "S"


def test_fixed_width_depads_bytes():
    adapter = FixedWidthAdapter((4, 3))
    r = tokenize_bytes(b"ab  1  \nc   22 \n", adapter, 2, [0, 1])
    assert r.fields[0].values().dtype.kind == "S"
    assert list(as_text(r.fields[0].values())) == ["ab", "c"]
    assert parse_fields(r.fields[1], DataType.INT64).tolist() == [1, 22]


@pytest.mark.parametrize(
    "adapter",
    [DelimitedAdapter(","), QuotedCsvAdapter(","), TsvAdapter(), FixedWidthAdapter((15,))],
)
def test_every_dialect_leaves_plain_digits_as_they_are(adapter):
    """The parser reads a digit column from the encoded spans, skipping
    the dialect's decode: so no dialect may change a field of digits."""
    digits = [b"0", b"7", b"42", b"000123", b"999999999999999"]
    assert list(as_text(adapter.decode_many(np.array(digits)))) == [d.decode() for d in digits]


def test_quoted_csv_decodes_a_byte_batch_to_str():
    out = QuotedCsvAdapter().decode_many(np.array([b'"a,b"', b"c", b'"x""y"']))
    assert out.tolist() == ["a,b", "c", 'x"y']
    assert all(isinstance(v, str) for v in out)


def test_identity_dialect_keeps_bytes():
    batch = np.array([b"1", b"2"])
    assert DelimitedAdapter().decode_many(batch) is batch


# ------------------------------------------------------- engine regressions


def _answers(engine, path, queries, **attach):
    try:
        engine.attach("t", path, **attach)
        return [engine.query(sql).rows() for sql in queries], engine
    finally:
        engine.close()


def test_quoted_csv_string_column_under_partial_v1(tmp_path):
    """The selective gather hands quoted CSV byte windows; the string
    answer must be the decoded text, never ``"b'...'"``."""
    pad = "z" * 40
    lines = [f'{i},"name {i}, jr",{pad}' for i in range(400)]
    path = tmp_path / "q.csv"
    path.write_text("\n".join(lines) + "\n")
    # Every row qualifies the first time, so the map learns both columns;
    # the second query is answered from byte windows.
    queries = ["select a2 from t where a1 >= 0", "select a2 from t where a1 > 390"]
    want, _ = _answers(CSVEngine(), path, queries, format="quoted-csv")
    engine = NoDBEngine(EngineConfig(policy="partial_v1"))
    got, engine = _answers(engine, path, queries, format="quoted-csv")
    assert got == want
    assert got[1] == [(f"name {i}, jr",) for i in range(391, 400)]
    assert engine.stats.last().file_bytes_read < path.stat().st_size
