"""The pushdown predicate's bulk form against its per-value form.

:class:`~repro.core.loader.WideningPredicate` is one predicate with two
forms: ``pred(text)`` for the scalar tokenizer routes and
``pred.mask(values)`` for the bulk kernel and the selective-read route.
Without a widening they must agree value for value; with one, the bulk
form compares the whole column at the type the whole-column parse ends
at.  Both count conversions the same way and fail only with
:class:`~repro.errors.FlatFileError`.  The engine-level guard at the end
proves neither bulk route calls the per-value form at all.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CSVEngine, EngineConfig, NoDBEngine
from repro.core import loader
from repro.core.loader import WideningPredicate, parse_widening
from repro.errors import FlatFileError
from repro.flatfile.parser import ParseStats
from repro.flatfile.schema import ColumnSchema, DataType, TableSchema
from repro.ranges import ValueInterval

_LADDER = [DataType.INT64, DataType.FLOAT64, DataType.STRING]

#: Spellings NumPy's and Python's parsers both have opinions about.
_SPELLINGS = [
    "nan", "NaN", " nan ", "inf", "-inf", "Infinity", "+3", " 5 ", "1_000",
    "1_0.5", "", " ", "abc", "1.5", "-0", "1e3", "99999999999999999999",
]

# Integers stay within 2**53: past it an int64-vs-float comparison is
# done in float64 by NumPy (as in every executor mask) but exactly by
# Python, which is a comparison difference, not a predicate one.
_TEXT = st.one_of(
    st.sampled_from(_SPELLINGS),
    st.integers(-(2**53), 2**53).map(str),
    st.floats(allow_nan=True, allow_infinity=True, width=64).map(repr),
    st.text(alphabet="0123456789_ .-+eEnaifINFx", max_size=6),
)

_NUMERIC_BOUND = st.one_of(
    st.none(), st.integers(-1000, 1000), st.floats(-1e6, 1e6, allow_nan=False)
)
_STR_BOUND = st.one_of(st.none(), st.sampled_from(["", "1", "5", "abc", "nan"]))


@st.composite
def intervals(draw):
    """Both bounds of one kind: per value, ``lo`` short-circuits ``hi``,
    so a str ``lo`` beside a numeric ``hi`` fails on some values only."""
    bound = draw(st.sampled_from([_NUMERIC_BOUND, _STR_BOUND]))
    return ValueInterval(
        draw(bound),
        draw(bound),
        lo_open=draw(st.booleans()),
        hi_open=draw(st.booleans()),
    )


def _column(dtype: DataType) -> SimpleNamespace:
    """A stand-in table entry whose one column ``c`` is typed ``dtype``:
    the fields widening reads and writes."""
    return SimpleNamespace(
        schema=TableSchema([ColumnSchema("c", dtype)]), zone_maps=None, table=None
    )


def _dtype(entry: SimpleNamespace) -> DataType:
    return entry.schema.columns[0].dtype


def _predicate(interval: ValueInterval, dtype: DataType):
    """A predicate over a column of its own."""
    entry, stats = _column(dtype), ParseStats()
    return WideningPredicate(entry, 0, interval, stats), entry, stats


def _outcome(fn):
    """``("ok", value)`` or ``("error", None)``; only FlatFileError may escape."""
    try:
        return "ok", fn()
    except FlatFileError:
        return "error", None


@settings(max_examples=400, deadline=None)
@given(
    texts=st.lists(_TEXT, max_size=12),
    interval=intervals(),
    start=st.sampled_from(_LADDER),
)
def test_mask_agrees_with_per_value_form(texts, interval, start):
    values = np.array(texts, dtype=str) if texts else np.empty(0, dtype="U1")

    # The whole-column parse the selective route's output column gets.
    whole = _column(start)
    parsed = parse_widening(whole, 0, values, ParseStats())
    widened = _dtype(whole) is not start

    bulk, bulk_entry, bulk_stats = _predicate(interval, start)
    got = _outcome(lambda: bulk.mask(values).tolist())
    per, _, _ = _predicate(interval, start)
    want = _outcome(lambda: [bool(per(v)) for v in texts])

    if not widened:
        assert got == want
    else:
        try:
            expected = ("ok", interval.mask(parsed).tolist())
        except TypeError:  # e.g. str-widened values against numeric bounds
            expected = ("error", None)
        assert got == expected
    # One count per value per parse attempt; the bulk form ends at the
    # type the whole-column parse ends at.
    if len(values):
        attempts = _LADDER.index(_dtype(whole)) - _LADDER.index(start) + 1
        assert bulk_stats.values_parsed == len(values) * attempts
        assert _dtype(bulk_entry) is _dtype(whole)
    else:
        assert bulk_stats.values_parsed == 0


def test_widening_compares_the_whole_column_at_the_wider_type():
    """Per value, "3" compares as an int before "2.5" widens the column;
    in bulk every value compares as a float — and both agree here."""
    interval = ValueInterval(2, None, lo_open=True)
    values = np.array(["3", "2.5", "1"])
    bulk, entry, stats = _predicate(interval, DataType.INT64)
    assert bulk.mask(values).tolist() == [True, True, False]
    assert _dtype(entry) is DataType.FLOAT64
    assert stats.values_parsed == 6  # int attempt + float attempt


def test_str_widened_column_against_numeric_bounds_is_typed():
    bulk, _, _ = _predicate(ValueInterval(1, None), DataType.INT64)
    with pytest.raises(FlatFileError, match="pushdown predicate"):
        bulk.mask(np.array(["1", "oops"]))


def test_numeric_column_against_str_bound_is_typed():
    bulk, _, _ = _predicate(ValueInterval("a", None), DataType.INT64)
    with pytest.raises(FlatFileError, match="pushdown predicate"):
        bulk.mask(np.array(["1", "2"]))


# ---------------------------------------------------------------------------
# engine-level guard: neither bulk route calls the per-value form
# ---------------------------------------------------------------------------


@pytest.fixture
def uniform_csv(tmp_path):
    """A clustered ``ts`` and a uniform ``u1``: zone maps cannot skip u1."""
    rng = np.random.default_rng(3)
    n = 4000
    ts = np.cumsum(rng.integers(1, 20, n))
    u1 = rng.integers(0, 100_000, n)
    u2 = rng.integers(0, 100_000, n)
    path = tmp_path / "t.csv"
    lines = ["ts,u1,u2,pad"] + [
        f"{a},{b},{c},{'x' * 24}" for a, b, c in zip(ts, u1, u2)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def per_value_forbidden(monkeypatch):
    """Per-value calls raise; bulk calls are counted."""
    masks = []
    real_mask = loader.WideningPredicate.mask

    def forbidden(self, text):
        raise AssertionError(f"per-value predicate call on {text!r}")

    def counted(self, values):
        masks.append(len(values))
        return real_mask(self, values)

    monkeypatch.setattr(loader.WideningPredicate, "__call__", forbidden)
    monkeypatch.setattr(loader.WideningPredicate, "mask", counted)
    return masks


SELECTIVE_SQL = "select count(*), sum(u2) from t where u1 >= 20000 and u1 < 21000"


def test_warm_selective_pass_is_bulk(uniform_csv, per_value_forbidden):
    oracle = CSVEngine()
    oracle.attach("t", uniform_csv)
    with NoDBEngine(EngineConfig(policy="partial_v1")) as engine:
        engine.attach("t", uniform_csv)
        engine.query("select sum(ts), sum(u1), sum(u2) from t")  # learns the map
        per_value_forbidden.clear()
        got = engine.query(SELECTIVE_SQL).rows()
        qstats = engine.stats.last()
    assert got == oracle.query(SELECTIVE_SQL).rows()
    # The selective route ran: a fraction of the file, u1 for every row.
    assert 0 < qstats.file_bytes_read < uniform_csv.stat().st_size // 2
    assert per_value_forbidden[0] == 4000


def test_cold_kernel_pass_is_bulk(uniform_csv, per_value_forbidden):
    oracle = CSVEngine()
    oracle.attach("t", uniform_csv)
    with NoDBEngine(EngineConfig(policy="partial_v1")) as engine:
        engine.attach("t", uniform_csv)
        got = engine.query(SELECTIVE_SQL).rows()
        qstats = engine.stats.last()
    assert got == oracle.query(SELECTIVE_SQL).rows()
    assert qstats.file_bytes_read >= uniform_csv.stat().st_size  # a full scan
    assert per_value_forbidden == [4000]
