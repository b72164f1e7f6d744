"""Query answers served by the engine's warm cracking route.

The engine has one cracking query path: once the monitor's advisor has
seen ``crack_after`` warm range scans on a fully resident numeric column,
``_warm_cracked`` builds a :class:`CrackerColumn` copy of it and answers
range selections through it.  These cases check that route end to end
through :class:`NoDBEngine` against NumPy over the same data: selections,
aggregates, edge operators, repeated and shifting ranges, and the row
order of projections after the cracker has reordered its copy.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.core.engine import NoDBEngine

NROWS = 1000


@pytest.fixture
def data():
    rng = np.random.default_rng(3)
    return {
        "a1": rng.permutation(NROWS).astype(np.int64),
        "a2": rng.permutation(NROWS).astype(np.int64),
    }


@pytest.fixture
def csv_file(tmp_path, data):
    path = tmp_path / "t.csv"
    np.savetxt(path, np.column_stack([data["a1"], data["a2"]]), fmt="%d", delimiter=",")
    return path


def _engine(path, policy="fullload", cracking=True):
    engine = NoDBEngine(EngineConfig(policy=policy, crack_after=1, cracking=cracking))
    engine.attach("t", path)
    engine.query("select count(*) from t")  # pay the load once
    return engine


def _q1(lo1, hi1, lo2, hi2):
    return f"a1 > {lo1} and a1 < {hi1} and a2 > {lo2} and a2 < {hi2}"


def _q1_mask(data, lo1, hi1, lo2, hi2):
    a1, a2 = data["a1"], data["a2"]
    return (a1 > lo1) & (a1 < hi1) & (a2 > lo2) & (a2 < hi2)


class TestSelect:
    def test_matches_numpy(self, csv_file, data):
        bounds = (100, 400, 200, 900)
        with _engine(csv_file) as e:
            got = e.query(f"select a1, a2 from t where {_q1(*bounds)}").rows()
            assert e.stats.last().served_by_cracker
            assert e.stats.last().cracks > 0
        mask = _q1_mask(data, *bounds)
        expected = list(zip(data["a1"][mask].tolist(), data["a2"][mask].tolist()))
        assert got == expected

    def test_projection_keeps_file_order(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("7,1\n5,2\n9,3\n6,4\n8,5\n")
        with _engine(path) as e:
            # A narrow range first, so the wide one spans three cracked pieces.
            assert e.query("select a2 from t where a1 > 6 and a1 < 8").rows() == [(1,)]
            got = e.query("select a1, a2 from t where a1 > 5 and a1 < 9").rows()
            assert e.stats.last().served_by_cracker
            assert e.catalog.get("t").crackers["a1"].values.tolist() != [7, 5, 9, 6, 8]
        assert got == [(7, 1), (6, 4), (8, 5)]

    def test_trivial_condition_returns_all(self, csv_file, data):
        with _engine(csv_file) as e:
            e.query(f"select count(*) from t where {_q1(100, 400, 200, 900)}")
            assert e.catalog.get("t").crackers
            assert e.query("select count(*) from t").scalar() == NROWS
            assert not e.stats.last().served_by_cracker
            got = [r[0] for r in e.query("select a1 from t").rows()]
        assert got == data["a1"].tolist()

    def test_repeated_queries_converge(self, csv_file):
        sql = f"select count(*) from t where {_q1(100, 400, 200, 900)}"
        with _engine(csv_file) as e:
            first = e.query(sql).scalar()
            cracker = e.catalog.get("t").crackers["a1"]
            moved_first = cracker.stats.rows_moved
            cracks_first = cracker.stats.cracks
            assert e.query(sql).scalar() == first
            assert e.stats.last().served_by_cracker
            assert e.stats.last().cracks == 0
            assert cracker.stats.rows_moved == moved_first
            assert cracker.stats.cracks == cracks_first

    def test_shifting_ranges_match_numpy(self, csv_file, data):
        rng = np.random.default_rng(11)
        with _engine(csv_file) as e:
            for _ in range(12):
                lo1, hi1 = sorted(rng.integers(0, NROWS, 2).tolist())
                lo2, hi2 = sorted(rng.integers(0, NROWS, 2).tolist())
                bounds = (lo1, hi1, lo2, hi2)
                got = e.query(f"select count(*), sum(a2) from t where {_q1(*bounds)}")
                mask = _q1_mask(data, *bounds)
                count, total = got.rows()[0]
                assert count == mask.sum()
                if count:
                    assert total == data["a2"][mask].sum()
                else:
                    assert math.isnan(total)  # the mask route's empty sum
            cracker = e.catalog.get("t").crackers["a1"]
            assert cracker.stats.cracks > 2
            cracker.check_invariants()

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "="])
    def test_edge_operators_match_numpy(self, csv_file, data, op):
        pivot = 500
        mask = {
            "<": data["a1"] < pivot,
            "<=": data["a1"] <= pivot,
            ">": data["a1"] > pivot,
            ">=": data["a1"] >= pivot,
            "=": data["a1"] == pivot,
        }[op]
        with _engine(csv_file) as e:
            got = e.query(f"select count(*), sum(a2) from t where a1 {op} {pivot}")
            assert e.stats.last().served_by_cracker
        count, total = got.rows()[0]
        assert count == mask.sum()
        assert total == data["a2"][mask].sum()

    @pytest.mark.parametrize("where", ["a > 0", "a >= 1.5", "a < 3", "a <= 7.25"])
    def test_one_sided_range_drops_nan_rows_like_the_mask_route(self, tmp_path, where):
        """A one-sided cracked slice keeps the NaN rows right of its cut;
        the executor's WHERE drops them."""
        path = tmp_path / "f.csv"
        values = ["1.5", "nan", "3.0", "-2.0", "NaN", "7.25", "nan"]
        path.write_text("a,b\n" + "".join(f"{v},{i}\n" for i, v in enumerate(values)))
        sql = f"select b from t where {where}"
        with _engine(path) as cracked, _engine(path, cracking=False) as masked:
            got = _rows(cracked, sql)
            assert cracked.stats.last().served_by_cracker
            assert got == _rows(masked, sql)

    def test_empty_range_answers_like_the_mask_route(self, csv_file):
        sql = "select count(*), sum(a2) from t where a1 > 600 and a1 < 400"
        with _engine(csv_file) as e:
            cracked = e.query(sql).rows()
            assert e.stats.last().served_by_cracker
        with NoDBEngine(EngineConfig(policy="fullload", cracking=False)) as e:
            e.attach("t", csv_file)
            masked = e.query(sql).rows()
        assert len(cracked) == len(masked) == 1
        assert cracked[0][0] == masked[0][0] == 0
        assert math.isnan(cracked[0][1]) and math.isnan(masked[0][1])


class TestAggregate:
    @pytest.mark.parametrize("policy", ["fullload", "column_loads"])
    def test_aggregates_match_numpy(self, csv_file, data, policy):
        bounds = (50, 700, 100, 800)
        sql = (
            "select sum(a1), min(a2), max(a1), avg(a2), count(*) "
            f"from t where {_q1(*bounds)}"
        )
        with _engine(csv_file, policy) as e:
            e.query(sql)  # column_loads loads a1 and a2 on this first scan
            row = e.query(sql).rows()[0]
            assert e.stats.last().served_by_cracker
        mask = _q1_mask(data, *bounds)
        a1, a2 = data["a1"][mask], data["a2"][mask]
        assert row[0] == a1.sum()
        assert row[1] == a2.min()
        assert row[2] == a1.max()
        assert row[3] == pytest.approx(a2.mean())
        assert row[4] == mask.sum()

    def test_count_star_only(self, csv_file, data):
        bounds = (0, 100, 0, 1000)
        with _engine(csv_file) as e:
            got = e.query(f"select count(*) from t where {_q1(*bounds)}").scalar()
            assert e.stats.last().served_by_cracker
        assert got == _q1_mask(data, *bounds).sum()

    def test_float_column_matches_numpy(self, tmp_path):
        values = np.random.default_rng(5).normal(size=NROWS).round(3)
        path = tmp_path / "f.csv"
        np.savetxt(path, np.column_stack([values, np.arange(NROWS)]), fmt="%.3f,%d")
        with _engine(path) as e:
            got = e.query("select count(*), sum(a2) from t where a1 > -0.5 and a1 < 0.25")
            assert e.stats.last().served_by_cracker
        mask = (values > -0.5) & (values < 0.25)
        assert got.rows()[0] == (mask.sum(), np.arange(NROWS)[mask].sum())


B53 = 2**53


def _rows(engine, sql):
    return sorted(r[0] for r in engine.query(sql).rows())


class TestPivotsPastFloatPrecision:
    """Past 2**53 NumPy compares an int64 column with a float pivot (and a
    float64 column with an int pivot) in float64, where neighbouring
    integers round together; the cracker orders its cuts exactly.  Such
    a pivot declines to the mask route, which every answer must equal."""

    def test_mixed_bounds_past_2_53_answer_like_the_mask_route(self, tmp_path):
        path = tmp_path / "t.csv"
        a = [B53 - 2, B53 - 1, B53, B53 + 1, B53 + 2, B53 + 3, 5, B53 + 1]
        path.write_text("a,b\n" + "".join(f"{v},{i}\n" for i, v in enumerate(a)))
        queries = [
            "select b from t where a >= 9007199254740992 and a < 9007199254740994",
            "select b from t where a > 9007199254740991 and a <= 9007199254740992.0",
            "select b from t where a >= 9007199254740993 and a <= 9007199254740994",
        ]
        with _engine(path) as cracked, _engine(path, cracking=False) as masked:
            for sql in queries:
                assert _rows(cracked, sql) == _rows(masked, sql)
            assert _rows(cracked, queries[-1]) == [3, 4, 7]

    @settings(max_examples=200, deadline=None)
    @given(
        floats=st.booleans(),
        sign=st.sampled_from([-1, 1]),
        offsets=st.lists(st.integers(-4, 4), min_size=1, max_size=16),
        queries=st.lists(
            st.tuples(
                st.sampled_from([None, ">", ">="]),
                st.sampled_from([None, "<", "<="]),
                st.tuples(st.integers(-4, 4), st.booleans()),
                st.tuples(st.integers(-4, 4), st.booleans()),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_pivots_of_both_kinds_around_2_53(self, floats, sign, offsets, queries):
        """Column values and pivots sit at ``sign * (2**53 + offset)``;
        each pivot is an int or a float literal, on an int64 or a float64
        column."""
        values = [sign * (B53 + o) for o in offsets]
        text = [repr(float(v)) if floats else str(v) for v in values]

        def pivot(drawn):
            off, as_float = drawn
            v = sign * (B53 + off)
            return repr(float(v)) if as_float else str(v)

        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.csv"
            path.write_text(
                "a,b\n" + "".join(f"{v},{i}\n" for i, v in enumerate(text))
            )
            with _engine(path) as cracked, _engine(path, cracking=False) as masked:
                for lo_op, hi_op, lo, hi in queries:
                    terms = [f"a {lo_op} {pivot(lo)}"] if lo_op else []
                    terms += [f"a {hi_op} {pivot(hi)}"] if hi_op else []
                    where = " and ".join(terms) or "a = a"
                    sql = f"select b from t where {where}"
                    assert _rows(cracked, sql) == _rows(masked, sql), sql
