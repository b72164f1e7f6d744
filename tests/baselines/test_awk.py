"""Tests for the scripting-tool (Awk) baseline."""

import numpy as np
import pytest

from benchmarks.awk import AwkEngine
from benchmarks.workload import materialize_join_pair
from repro import NoDBEngine
from repro.errors import UnsupportedSQLError


@pytest.fixture
def awk(small_csv):
    engine = AwkEngine()
    engine.attach("r", small_csv)
    return engine


class TestSingleTable:
    def test_aggregate_matches_numpy(self, awk, small_columns):
        r = awk.query("select sum(a1), count(*) from r where a1 > 100 and a1 < 300")
        a1 = small_columns[0]
        mask = (a1 > 100) & (a1 < 300)
        assert r.rows()[0] == (a1[mask].sum(), mask.sum())

    def test_projection(self, awk, small_columns):
        r = awk.query("select a1, a2 from r where a1 < 5 order by a1")
        a1, a2 = small_columns[0], small_columns[1]
        mask = a1 < 5
        order = np.argsort(a1[mask])
        assert r.column("a1").tolist() == a1[mask][order].tolist()
        assert r.column("a2").tolist() == a2[mask][order].tolist()

    def test_group_by_matches_engine(self, awk, small_csv):
        sql = (
            "select a1 * 0 + a2 * 0 + a3 * 0 as zero, count(*) as n, sum(a1) as s "
            "from r where a1 > 100 and a1 < 400 group by a1 * 0 + a2 * 0 + a3 * 0"
        )
        db = NoDBEngine()
        db.attach("r", small_csv)
        got = awk.query(sql)
        expected = db.query(sql)
        assert sorted(got.rows()) == sorted(expected.rows())
        db.close()

    def test_statelessness(self, awk):
        sql = "select sum(a2) from r where a2 > 10 and a2 < 400"
        first = awk.query(sql)
        second = awk.query(sql)
        assert first.approx_equal(second)
        # Two full scans: the file was read twice.
        table = awk.tables["r"]
        assert table.file.stats.full_scans == 2

    def test_limit(self, awk):
        assert awk.query("select a1 from r limit 5").num_rows == 5

    def test_distinct_matches_engine(self, awk, small_csv):
        sql = (
            "select distinct a1 * 0 as z, a2 * 0 as z2 from r "
            "where a1 > 10 and a1 < 400"
        )
        db = NoDBEngine()
        db.attach("r", small_csv)
        got = awk.query(sql)
        expected = db.query(sql)
        assert sorted(got.rows()) == sorted(expected.rows())
        db.close()

    def test_order_desc_and_limit(self, awk, small_columns):
        r = awk.query("select a1 from r order by a1 desc limit 3")
        top = sorted(small_columns[0].tolist(), reverse=True)[:3]
        assert r.column("a1").tolist() == top


class TestJoins:
    @pytest.fixture
    def join_files(self, tmp_path):
        return materialize_join_pair(200, tmp_path / "l.csv", tmp_path / "r.csv")

    def test_hash_join_matches_engine(self, join_files):
        lp, rp = join_files
        awk = AwkEngine(join_strategy="hash")
        awk.attach("l", lp)
        awk.attach("rt", rp)
        db = NoDBEngine()
        db.attach("l", lp)
        db.attach("rt", rp)
        sql = (
            "select sum(l.a2), avg(rt.a2), count(*) from l join rt on l.a1 = rt.a1 "
            "where l.a2 > 10 and l.a2 < 150"
        )
        assert awk.query(sql).approx_equal(db.query(sql))
        db.close()

    def test_merge_join_matches_hash_join(self, join_files):
        lp, rp = join_files
        sql = "select sum(l.a2), count(*) from l join rt on l.a1 = rt.a1"
        results = []
        for strategy in ("hash", "merge"):
            awk = AwkEngine(join_strategy=strategy)
            awk.attach("l", lp)
            awk.attach("rt", rp)
            results.append(awk.query(sql))
        assert results[0].approx_equal(results[1])

    def test_three_tables_unsupported(self, join_files, small_csv):
        lp, rp = join_files
        awk = AwkEngine()
        awk.attach("l", lp)
        awk.attach("rt", rp)
        awk.attach("r3", small_csv)
        with pytest.raises(UnsupportedSQLError):
            awk.query(
                "select count(*) from l join rt on l.a1 = rt.a1 "
                "join r3 on l.a1 = r3.a1"
            )


class TestErrors:
    def test_unattached_table(self, awk):
        with pytest.raises(UnsupportedSQLError, match="not attached"):
            awk.query("select 1 from nowhere")
