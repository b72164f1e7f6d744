"""Schema widening and pushdown error domains.

Schema inference samples a bounded prefix (128 rows), so a perfectly valid
CSV can carry a float — or text — in an int-sampled column beyond the
sample window.  That must widen the column type and retry, never crash the
query; and when a pushdown predicate meets an unparseable field, the error
must come from the ``repro.errors`` family, not leak a raw ``ValueError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CSVEngine, EngineConfig, NoDBEngine
from repro.config import POLICIES
from repro.core.loader import run_pass
from repro.errors import FlatFileError, ReproError
from repro.flatfile.schema import DataType
from repro.ranges import Condition, ValueInterval
from repro.storage.catalog import Catalog
from repro.strings import StringColumn

CONFIG = EngineConfig()


@pytest.fixture
def late_float_csv(tmp_path):
    """The ISSUE repro: rows ``i,2i`` for i<200, with row 150 = 150.5,300."""
    rows = [f"{i},{i * 2}" if i != 150 else "150.5,300" for i in range(200)]
    path = tmp_path / "late_float.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def late_text_csv(tmp_path):
    rows = [f"{i},{i * 2}" if i != 150 else "oops,300" for i in range(200)]
    path = tmp_path / "late_text.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def int64_overflow_csv(tmp_path):
    """Column ``a`` holds 0..1999, then an integer no int64 can hold."""
    rows = [str(i) for i in range(2000)] + ["99999999999999999999"]
    path = tmp_path / "overflow.csv"
    path.write_text("a\n" + "\n".join(rows) + "\n")
    return path


EXPECTED_SUM = sum(i for i in range(200) if i != 150) + 150.5


class TestWidening:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_late_float_widens_under_every_policy(self, late_float_csv, policy):
        with NoDBEngine(EngineConfig(policy=policy)) as engine:
            engine.attach("t", late_float_csv)
            result = engine.query("select sum(a1) from t")
            assert result.scalar() == pytest.approx(EXPECTED_SUM)
            # The schema records the widening.
            assert ("a1", "float64") in engine.schema_of("t")

    def test_widened_column_repeat_queries_work(self, late_float_csv):
        with NoDBEngine(EngineConfig(policy="column_loads")) as engine:
            engine.attach("t", late_float_csv)
            first = engine.query("select sum(a1) from t")
            second = engine.query("select sum(a1) from t")
            assert first.approx_equal(second)
            assert engine.stats.last().served_from_store

    def test_loader_returns_float_array(self, late_float_csv):
        entry = Catalog().attach("t", late_float_csv)
        result = run_pass(entry, ["a1"], None, CONFIG, parse_all_rows=True)
        assert result.columns["a1"].dtype == np.float64
        assert entry.schema.columns[0].dtype is DataType.FLOAT64

    def test_str_fallback_as_last_resort(self, late_text_csv):
        entry = Catalog().attach("t", late_text_csv)
        result = run_pass(entry, ["a1"], None, CONFIG, parse_all_rows=True)
        assert isinstance(result.columns["a1"], StringColumn)
        assert entry.schema.columns[0].dtype is DataType.STRING
        values = result.columns["a1"].decode()
        assert values[150] == "oops"
        assert values[0] == "0"

    def test_partial_v2_fragments_survive_numeric_widening(self, late_float_csv):
        """Fragments stored as int64 before the widening row is reached are
        converted, not lost, and later queries still answer correctly."""
        with NoDBEngine(EngineConfig(policy="partial_v2")) as engine:
            engine.attach("t", late_float_csv)
            # Pushdown on a2 keeps the pass away from a1's row 150, so a1
            # fragments are stored as int64: no widening yet.
            engine.query("select sum(a1) from t where a2 < 200")
            assert ("a1", "int64") in engine.schema_of("t")
            # Now a pass that meets row 150 widens the stored fragment too.
            result = engine.query("select sum(a1) from t")
            assert result.scalar() == pytest.approx(EXPECTED_SUM)
            assert ("a1", "float64") in engine.schema_of("t")

    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_int64_overflow_widens_to_float(
        self, int64_overflow_csv, policy, vectorized, monkeypatch
    ):
        """Past int64 the parse overflows rather than failing: that must
        widen like any other unparseable value, not leak OverflowError —
        on the kernel and on the dialect loop it falls back to."""
        oracle = CSVEngine()
        oracle.attach("t", int64_overflow_csv)
        if not vectorized:
            monkeypatch.setattr(
                "repro.flatfile.vectorized.tokenize_vectorized",
                lambda *args, **kwargs: None,
            )
        with NoDBEngine(EngineConfig(policy=policy)) as engine:
            engine.attach("t", int64_overflow_csv)
            for sql in (
                "select max(a) from t",
                "select count(*), max(a) from t where a > 1000",
                "select sum(a) from t where a < 50",
            ):
                try:
                    got = engine.query(sql).rows()
                except ReproError:
                    continue
                assert got == oracle.query(sql).rows(), sql
        assert ("a", "float64") in oracle._engine.schema_of("t")

    def test_pushdown_predicate_widens_int_to_float(self, late_float_csv):
        """Under pushdown the predicate itself hits 150.5 first."""
        with NoDBEngine(EngineConfig(policy="partial_v1")) as engine:
            engine.attach("t", late_float_csv)
            result = engine.query("select sum(a1) from t where a1 > 100")
            expected = sum(i for i in range(101, 200) if i != 150) + 150.5
            assert result.scalar() == pytest.approx(expected)


class TestPushdownErrorDomain:
    @pytest.mark.parametrize("policy", ["partial_v1", "partial_v2"])
    def test_unparseable_predicate_field_raises_typed_error(
        self, late_text_csv, policy
    ):
        with NoDBEngine(EngineConfig(policy=policy)) as engine:
            engine.attach("t", late_text_csv)
            with pytest.raises(ReproError) as excinfo:
                engine.query("select sum(a2) from t where a1 > 100")
            assert isinstance(excinfo.value, FlatFileError)
            assert excinfo.value.__cause__ is not None

    def test_loader_level_predicate_error_is_typed(self, late_text_csv):
        entry = Catalog().attach("t", late_text_csv)
        condition = Condition([("a1", ValueInterval(100, None))])
        with pytest.raises(FlatFileError, match="pushdown predicate"):
            run_pass(entry, ["a2"], condition, CONFIG, parse_all_rows=False)

    def test_str_column_predicate_mismatch_is_typed(self, late_text_csv):
        """A predicate comparing a str-widened column against numeric
        bounds fails in the library's error family, not with TypeError."""
        entry = Catalog().attach("t", late_text_csv)
        run_pass(entry, ["a1"], None, CONFIG, parse_all_rows=True)  # widens a1 to str
        with pytest.raises(FlatFileError, match="pushdown predicate"):
            run_pass(
                entry,
                ["a2"],
                Condition([("a1", ValueInterval(100, None))]),
                CONFIG,
                parse_all_rows=False,
            )
