"""End-to-end scenarios crossing many subsystems at once.

These are the "downstream user" tests: realistic sessions, messy files,
failure injection — everything going through the public API only.
"""

import time

import numpy as np
import pytest

from benchmarks.workload import TableSpec, materialize_csv
from repro import (
    CatalogError,
    EngineConfig,
    FlatFileError,
    NoDBEngine,
    POLICIES,
    SQLSyntaxError,
)


class TestMixedTypeSessions:
    @pytest.fixture
    def sales_csv(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "sales.csv"
        lines = ["region,product,units,price"]
        regions = ["north", "south", "east", "west"]
        for i in range(400):
            lines.append(
                f"{regions[i % 4]},p{i % 10},{int(rng.integers(1, 50))},"
                f"{float(rng.uniform(0.5, 99.5)):.2f}"
            )
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("policy", POLICIES)
    def test_headered_mixed_table_under_every_policy(self, sales_csv, policy):
        with NoDBEngine(EngineConfig(policy=policy)) as engine:
            engine.attach("sales", sales_csv)
            r = engine.query(
                "select region, sum(units) as total, avg(price) as mean_price "
                "from sales where units >= 10 group by region order by region"
            )
            assert r.column("region").tolist() == ["east", "north", "south", "west"]
            assert all(v > 0 for v in r.column("total"))

    def test_string_filters(self, sales_csv):
        with NoDBEngine() as engine:
            engine.attach("sales", sales_csv)
            north = engine.query(
                "select count(*) from sales where region = 'north'"
            ).scalar()
            assert north == 100
            not_north = engine.query(
                "select count(*) from sales where region != 'north'"
            ).scalar()
            assert not_north == 300

    def test_distinct_and_in(self, sales_csv):
        with NoDBEngine() as engine:
            engine.attach("sales", sales_csv)
            r = engine.query(
                "select distinct region from sales "
                "where region in ('north', 'south') order by region"
            )
            assert r.column("region").tolist() == ["north", "south"]


class TestJoinSessions:
    @pytest.fixture
    def star_files(self, tmp_path):
        """A small star schema: facts + a dimension file."""
        facts = tmp_path / "facts.csv"
        lines = []
        rng = np.random.default_rng(12)
        for i in range(300):
            lines.append(f"{i},{int(rng.integers(0, 5))},{int(rng.integers(1, 100))}")
        facts.write_text("\n".join(lines) + "\n")

        dims = tmp_path / "dims.csv"
        dims.write_text("\n".join(f"{d},{(d + 1) * 1000}" for d in range(5)) + "\n")
        return facts, dims

    @pytest.mark.parametrize("policy", ["fullload", "column_loads", "partial_v2", "splitfiles"])
    def test_join_under_adaptive_policies(self, star_files, policy):
        facts, dims = star_files
        with NoDBEngine(EngineConfig(policy=policy)) as engine:
            engine.attach("f", facts)
            engine.attach("d", dims)
            r = engine.query(
                "select sum(f.a3 * d.a2) from f join d on f.a2 = d.a1"
            )
            # Ground truth by brute force.
            frows = [
                tuple(map(int, line.split(",")))
                for line in facts.read_text().strip().split("\n")
            ]
            dmap = {d: (d + 1) * 1000 for d in range(5)}
            expected = sum(v * dmap[k] for _, k, v in frows)
            assert r.scalar() == expected

    def test_join_loads_only_join_and_output_columns(self, star_files):
        facts, dims = star_files
        with NoDBEngine(EngineConfig(policy="column_loads")) as engine:
            engine.attach("f", facts)
            engine.attach("d", dims)
            engine.query("select count(*) from f join d on f.a2 = d.a1")
            f_table = engine.catalog.get("f").table
            assert f_table.fully_loaded_columns() == ["a2"]


class TestFailureInjection:
    def test_ragged_file_in_sample_raises_clean_error(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5,6\n7,8\n9,10,11\n")
        with NoDBEngine() as engine:
            engine.attach("t", path)
            with pytest.raises(FlatFileError, match="ragged sample"):
                engine.query("select sum(a3) from t")

    def test_ragged_row_beyond_sample_raises_clean_error(self, tmp_path):
        good_rows = "\n".join(f"{i},{i},{i}" for i in range(200))
        path = tmp_path / "ragged2.csv"
        path.write_text(good_rows + "\n7,8\n")
        with NoDBEngine() as engine:
            engine.attach("t", path)
            with pytest.raises(FlatFileError, match="fewer than"):
                engine.query("select sum(a3) from t")

    def test_unparseable_value_raises_with_type(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4\n5,oops\n")
        with NoDBEngine() as engine:
            engine.attach("t", path)
            # Schema inference sees 'oops' in the sample -> column a2 is a
            # string column; numeric aggregation over it is a bind error.
            from repro import BindError

            with pytest.raises(BindError):
                engine.query("select sum(a2) from t")

    def test_late_corruption_widens_then_fails_loudly(self, tmp_path):
        """A non-numeric value *beyond* the inference sample widens the
        column to str instead of crashing the load; the numeric aggregate
        over the now-textual column then fails loudly, never silently."""
        good_rows = "\n".join(f"{i},{i}" for i in range(200))
        path = tmp_path / "late.csv"
        path.write_text(good_rows + "\nxxx,5\n")
        with NoDBEngine() as engine:
            engine.attach("t", path)
            from repro.errors import ExecutionError

            with pytest.raises(ExecutionError, match="string column"):
                engine.query("select sum(a1) from t")
            # The table stays queryable: the other column still aggregates
            # and the widened column still answers count/min/max.
            assert engine.query("select sum(a2) from t").scalar() == sum(range(200)) + 5
            assert engine.query("select count(a1) from t").scalar() == 201

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with NoDBEngine() as engine:
            engine.attach("t", path)
            with pytest.raises(CatalogError, match="empty"):
                engine.query("select count(*) from t")

    def test_missing_file_rejected_at_attach(self, tmp_path):
        with NoDBEngine() as engine:
            with pytest.raises(FlatFileError, match="does not exist"):
                engine.attach("t", tmp_path / "ghost.csv")

    def test_sql_error_does_not_poison_engine(self, small_csv):
        with NoDBEngine() as engine:
            engine.attach("r", small_csv)
            with pytest.raises(SQLSyntaxError):
                engine.query("select from where")
            assert engine.query("select count(*) from r").scalar() == 500


class TestDelimiters:
    def test_pipe_delimited(self, tmp_path):
        path = tmp_path / "pipes.psv"
        path.write_text("1|2\n3|4\n5|6\n")
        with NoDBEngine() as engine:
            engine.attach("t", path, delimiter="|")
            assert engine.query("select sum(a2) from t").scalar() == 12

    def test_tab_delimited_with_splitfiles(self, tmp_path):
        path = tmp_path / "tabs.tsv"
        path.write_text("1\t2\t3\n4\t5\t6\n")
        with NoDBEngine(EngineConfig(policy="splitfiles")) as engine:
            engine.attach("t", path, delimiter="\t")
            assert engine.query("select sum(a3) from t").scalar() == 9
            assert engine.query("select sum(a1) from t").scalar() == 5


class TestLongSession:
    def test_policy_switch_mid_session_via_new_engine(self, tmp_path):
        """The documented migration path: reattach under another policy."""
        spec = TableSpec(nrows=2000, ncols=4, seed=77)
        path = materialize_csv(spec, tmp_path / "r.csv")
        sql = "select sum(a1) from r where a1 > 100 and a1 < 900"

        first = NoDBEngine(EngineConfig(policy="external"))
        first.attach("r", path)
        expected = first.query(sql).scalar()
        advice_engine_result = first.query(sql).scalar()
        first.close()

        second = NoDBEngine(EngineConfig(policy="splitfiles"))
        second.attach("r", path)
        assert second.query(sql).scalar() == expected == advice_engine_result
        second.close()

    def test_hundred_query_session_consistency(self, small_csv, small_columns):
        rng = np.random.default_rng(3)
        with NoDBEngine(EngineConfig(policy="partial_v2")) as engine:
            engine.attach("r", small_csv)
            a1 = small_columns[0]
            for _ in range(100):
                lo = int(rng.integers(0, 400))
                hi = lo + int(rng.integers(1, 100))
                got = engine.query(
                    f"select count(*) from r where a1 > {lo} and a1 < {hi}"
                ).scalar()
                assert got == ((a1 > lo) & (a1 < hi)).sum()
