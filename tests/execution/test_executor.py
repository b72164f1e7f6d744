"""Tests for the vectorized executor over in-memory columns."""

import numpy as np
import pytest

from repro.errors import UnsupportedSQLError
from repro.execution.executor import execute_bound_query
from repro.flatfile.schema import ColumnSchema, DataType, TableSchema
from repro.sql.binder import bind
from repro.sql.parser import parse_sql
from repro.strings import StringColumn

R_DATA = {
    "a1": np.array([1, 2, 3, 4, 5], dtype=np.int64),
    "a2": np.array([10, 20, 30, 40, 50], dtype=np.int64),
    "name": StringColumn.encode(["a", "b", "a", "c", "b"]),
    "price": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
}
S_DATA = {
    "k": np.array([3, 4, 5, 6], dtype=np.int64),
    "v": np.array([300, 400, 500, 600], dtype=np.int64),
}


def schemas():
    return {
        "r": TableSchema(
            [
                ColumnSchema("a1", DataType.INT64),
                ColumnSchema("a2", DataType.INT64),
                ColumnSchema("name", DataType.STRING),
                ColumnSchema("price", DataType.FLOAT64),
            ]
        ),
        "s": TableSchema(
            [ColumnSchema("k", DataType.INT64), ColumnSchema("v", DataType.INT64)]
        ),
    }


def run(sql):
    bound = bind(parse_sql(sql), schemas())
    data = {"r": R_DATA, "s": S_DATA}

    def get_column(binding, name):
        table = bound.tables[binding].lower()
        return data[table][name.lower()]

    def nrows_of(binding):
        table = bound.tables[binding].lower()
        return len(next(iter(data[table].values())))

    return execute_bound_query(bound, get_column, nrows_of)


class TestProjection:
    def test_select_columns(self):
        r = run("select a1, a2 from r")
        assert r.column("a1").tolist() == [1, 2, 3, 4, 5]

    def test_select_star(self):
        r = run("select * from r")
        assert r.names == ["a1", "a2", "name", "price"]

    def test_arithmetic(self):
        r = run("select a1 + a2 as s, a1 * 2 as d from r")
        assert r.column("s").tolist() == [11, 22, 33, 44, 55]
        assert r.column("d").tolist() == [2, 4, 6, 8, 10]

    def test_literal_projection(self):
        r = run("select a1, 7 as seven from r limit 2")
        assert r.column("seven").tolist() == [7, 7]


class TestAllRowsSelection:
    """A binding no predicate or join narrowed reads its base columns
    as they are: no index, no gather, and no result aliasing them."""

    def test_unfiltered_aggregate_reads_the_base_column(self):
        class NoGather(np.ndarray):
            def __getitem__(self, key):
                assert not isinstance(key, np.ndarray), "gathered all rows"
                return super().__getitem__(key)

        data = {n: v.view(NoGather) for n, v in R_DATA.items() if n != "name"}
        bound = bind(parse_sql("select sum(a1), max(price) from r"), schemas())
        r = execute_bound_query(bound, lambda b, n: data[n.lower()], lambda b: 5)
        assert r.rows() == [(15, 5.0)]

    def test_plain_projection_copies_the_base_column(self):
        r = run("select a1, name from r")
        assert not np.shares_memory(r.column("a1"), R_DATA["a1"])
        r.column("a1")[:] = 0
        assert R_DATA["a1"].tolist() == [1, 2, 3, 4, 5]

    def test_limit_over_all_rows_copies_too(self):
        r = run("select a2 from r limit 2")
        assert r.column("a2").tolist() == [10, 20]
        assert not np.shares_memory(r.column("a2"), R_DATA["a2"])

    def test_mask_then_join_then_residual(self):
        r = run("select a1, v from r join s on a1 = k where a2 > 30 and v + a2 < 540")
        assert r.rows() == [(4, 400)]

    def test_join_of_two_unfiltered_tables(self):
        r = run("select sum(v), count(*) from r join s on a1 = k")
        assert r.rows() == [(1200, 3)]


class TestFilter:
    def test_range(self):
        r = run("select a1 from r where a1 > 1 and a1 < 4")
        assert r.column("a1").tolist() == [2, 3]

    def test_or(self):
        r = run("select a1 from r where a1 = 1 or a1 = 5")
        assert r.column("a1").tolist() == [1, 5]

    def test_not(self):
        r = run("select a1 from r where not a1 = 3")
        assert r.column("a1").tolist() == [1, 2, 4, 5]

    def test_in_list(self):
        r = run("select a1 from r where a1 in (2, 4)")
        assert r.column("a1").tolist() == [2, 4]

    def test_not_in(self):
        r = run("select a1 from r where a1 not in (1, 2, 3)")
        assert r.column("a1").tolist() == [4, 5]

    def test_string_equality(self):
        r = run("select a1 from r where name = 'a'")
        assert r.column("a1").tolist() == [1, 3]

    def test_between(self):
        r = run("select a1 from r where a1 between 2 and 4")
        assert r.column("a1").tolist() == [2, 3, 4]

    def test_arithmetic_predicate(self):
        r = run("select a1 from r where a1 + a2 > 33")
        assert r.column("a1").tolist() == [4, 5]

    def test_empty_result(self):
        r = run("select a1 from r where a1 > 100")
        assert r.num_rows == 0


class TestAggregates:
    def test_global(self):
        r = run("select sum(a1), min(a1), max(a1), avg(a1), count(*) from r")
        assert r.rows()[0] == (15, 1, 5, 3.0, 5)

    def test_filtered_aggregate(self):
        r = run("select sum(a2) from r where a1 >= 4")
        assert r.scalar() == 90

    def test_expression_of_aggregates(self):
        r = run("select sum(a1) / count(*) as mean from r")
        assert r.scalar() == pytest.approx(3.0)

    def test_count_distinct(self):
        r = run("select count(distinct name) from r")
        assert r.scalar() == 3

    def test_group_by(self):
        r = run("select name, sum(a1) as s from r group by name order by name")
        assert r.column("name").tolist() == ["a", "b", "c"]
        assert r.column("s").tolist() == [4, 7, 4]

    def test_order_by_aggregate_not_in_select(self):
        r = run("select name from r group by name order by sum(a1) desc")
        # sums: a=4, b=7, c=4 -> b first.
        assert r.column("name").tolist()[0] == "b"

    def test_order_by_hidden_agg_with_having(self):
        r = run(
            "select name from r group by name having count(*) > 1 "
            "order by max(price) desc"
        )
        assert r.column("name").tolist() == ["b", "a"]

    def test_group_by_multiple_aggs(self):
        r = run(
            "select name, min(price) as lo, max(price) as hi from r "
            "group by name order by name"
        )
        assert r.column("lo").tolist() == [1.0, 2.0, 4.0]
        assert r.column("hi").tolist() == [3.0, 5.0, 4.0]

    def test_aggregate_over_empty_selection(self):
        r = run("select count(*), sum(a1) from r where a1 > 99")
        row = r.rows()[0]
        assert row[0] == 0
        assert np.isnan(row[1])


class TestJoins:
    def test_inner_join(self):
        r = run("select a1, v from r join s on a1 = k order by a1")
        assert r.column("a1").tolist() == [3, 4, 5]
        assert r.column("v").tolist() == [300, 400, 500]

    def test_join_with_filters(self):
        r = run("select a1, v from r join s on a1 = k where a1 > 3 and v < 500")
        assert r.rows() == [(4, 400)]

    def test_join_aggregate(self):
        r = run("select sum(v) from r join s on a1 = k")
        assert r.scalar() == 1200

    def test_single_table_join_condition_rejected_at_bind(self):
        from repro.errors import BindError

        with pytest.raises(BindError):
            run("select r.a1 from r join s on r.a1 = r.a2")


class TestOrderLimitDistinct:
    def test_order_desc(self):
        r = run("select a1 from r order by a1 desc")
        assert r.column("a1").tolist() == [5, 4, 3, 2, 1]

    def test_order_by_expression_key(self):
        r = run("select a1, a2 from r order by a2 desc limit 2")
        assert r.column("a1").tolist() == [5, 4]

    def test_order_desc_on_strings(self):
        names = R_DATA["name"].decode().tolist()
        pairs = sorted(zip(names, R_DATA["a1"].tolist()), key=lambda p: p[1])
        want = sorted(pairs, key=lambda p: p[0], reverse=True)
        r = run("select name, a1 from r order by name desc, a1")
        assert r.rows() == want
        r = run("select name, count(*) from r group by name order by name desc")
        assert r.column("name").tolist() == ["c", "b", "a"]
        r = run("select distinct name from r order by name desc limit 2")
        assert r.column("name").tolist() == ["c", "b"]

    def test_order_desc_on_a_string_literal(self):
        r = run("select 'x' as c, a1 from r order by c desc, a1 desc limit 2")
        assert r.column("a1").tolist() == [5, 4]

    def test_limit(self):
        r = run("select a1 from r limit 3")
        assert r.num_rows == 3

    def test_distinct(self):
        r = run("select distinct name from r order by name")
        assert r.column("name").tolist() == ["a", "b", "c"]

    def test_distinct_multi_column(self):
        r = run("select distinct name, a1 / a1 as one from r")
        assert r.num_rows == 3


class TestColumnWidenedByItsOwnLoad:
    """Schema inference samples 128 rows, so a column bound as int64 can
    be widened to ``str`` by the very load that serves the query.  An
    operator that does not take a string is then an ExecutionError on
    every evaluation path — WHERE, projections, HAVING and ORDER BY keys
    over groups — never a raw TypeError."""

    @pytest.fixture
    def late_text(self, tmp_path):
        rows = [f"{i},{3 * i}" if i != 222 else "x222,666" for i in range(300)]
        path = tmp_path / "r.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    @pytest.mark.parametrize(
        "sql",
        [
            "select a1, count(*) from r group by a1 having a1 > 10",
            "select a1, count(*) from r group by a1 order by a1 + 1",
            "select a1 + 1 from r",
            "select -a1 from r",
            "select count(*) from r where a1 > 10",
        ],
    )
    def test_a_type_error_is_an_execution_error(self, late_text, sql):
        from repro import NoDBEngine
        from repro.errors import ExecutionError

        with NoDBEngine() as engine:
            engine.attach("r", late_text)
            with pytest.raises(ExecutionError, match="cannot evaluate"):
                engine.query(sql)
            # The table stays queryable.
            assert engine.query("select count(*) from r").scalar() == 300
