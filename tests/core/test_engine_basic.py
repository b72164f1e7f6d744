"""End-to-end engine tests: attach, query, stats, explain, lifecycle."""

import numpy as np
import pytest

from benchmarks.workload import materialize_join_pair
from repro import CatalogError, EngineConfig, NoDBEngine


class TestZeroInitialization:
    def test_attach_reads_nothing(self, engine_factory):
        engine = engine_factory("column_loads")
        entry = engine.catalog.get("r")
        assert entry.file.stats.bytes_read == 0
        assert entry.schema is None

    def test_tables_listing(self, engine_factory):
        assert engine_factory().tables() == ["r"]

    def test_schema_of_triggers_bounded_inference(self, engine_factory):
        engine = engine_factory()
        schema = engine.schema_of("r")
        assert schema == [("a1", "int64"), ("a2", "int64"), ("a3", "int64"), ("a4", "int64")]
        entry = engine.catalog.get("r")
        assert entry.file.stats.bytes_read < entry.file.size_bytes()

    def test_detach(self, engine_factory):
        engine = engine_factory()
        engine.detach("r")
        assert engine.tables() == []
        with pytest.raises(CatalogError):
            engine.query("select a1 from r")


class TestQueryCorrectness:
    def test_aggregate_matches_numpy(self, engine_factory, small_columns):
        engine = engine_factory("column_loads")
        r = engine.query(
            "select sum(a1), count(*) from r where a1 > 100 and a1 < 300"
        )
        a1 = small_columns[0]
        mask = (a1 > 100) & (a1 < 300)
        assert r.rows()[0] == (a1[mask].sum(), mask.sum())

    def test_projection_matches_numpy(self, engine_factory, small_columns):
        engine = engine_factory("column_loads")
        r = engine.query("select a1, a3 from r where a1 < 10 order by a1")
        a1, a3 = small_columns[0], small_columns[2]
        order = np.argsort(a1[a1 < 10])
        assert r.column("a1").tolist() == sorted(a1[a1 < 10].tolist())
        assert r.column("a3").tolist() == a3[a1 < 10][order].tolist()

    def test_repeat_query_identical(self, engine_factory):
        engine = engine_factory("column_loads")
        sql = "select avg(a2) from r where a1 > 50 and a1 < 450"
        assert engine.query(sql).approx_equal(engine.query(sql))

    def test_mixed_type_table(self, mixed_csv):
        engine = NoDBEngine()
        engine.attach("m", mixed_csv)
        r = engine.query("select name, price from m where qty >= 30 order by price")
        assert r.column("name").tolist() == ["cherry", "elderberry", "date"]
        engine.close()

    def test_group_by_through_engine(self, mixed_csv):
        engine = NoDBEngine()
        engine.attach("m", mixed_csv)
        r = engine.query(
            "select qty / 10 as bucket, count(*) as n from m group by qty / 10 "
            "order by bucket limit 3"
        )
        assert r.column("n").tolist() == [1, 1, 1]
        engine.close()


class TestStatsAndExplain:
    def test_query_stats_recorded(self, engine_factory):
        engine = engine_factory("column_loads")
        engine.query("select sum(a1) from r")
        engine.query("select sum(a1) from r")
        assert len(engine.stats.queries) == 2
        first, second = engine.stats.queries
        assert first.went_to_file and not first.served_from_store
        assert second.served_from_store and not second.went_to_file
        assert first.file_bytes_read > 0
        assert second.file_bytes_read == 0
        assert first.rows_loaded == 500

    def test_result_stats_attached(self, engine_factory):
        engine = engine_factory()
        r = engine.query("select count(*) from r")
        assert r.stats["policy"] == "column_loads"
        assert r.stats["elapsed_s"] > 0

    def test_explain_before_and_after(self, engine_factory):
        engine = engine_factory("column_loads")
        sql = "select sum(a1) from r where a1 > 5 and a1 < 50"
        before = engine.explain(sql)
        assert "nothing loaded yet" in before
        engine.query(sql)
        after = engine.explain(sql)
        assert "fully loaded" in after

    def test_summary_line(self, engine_factory):
        engine = engine_factory()
        engine.query("select count(*) from r")
        line = engine.stats.last().summary()
        assert "src=" in line


class TestContextManager:
    def test_with_statement(self, small_csv):
        with NoDBEngine(EngineConfig(policy="splitfiles")) as engine:
            engine.attach("r", small_csv)
            engine.query("select sum(a2) from r")
            split_dir = engine.config.splitfile_dir
            assert split_dir is not None and any(split_dir.iterdir())
        assert engine.config.splitfile_dir is None  # cleaned up


class TestSharedConfig:
    """Each engine keeps its own copy of the config it was given."""

    def test_closing_one_splitfiles_engine_spares_the_other(
        self, small_csv, small_columns
    ):
        cfg = EngineConfig(policy="splitfiles")
        a, b = NoDBEngine(cfg), NoDBEngine(cfg)
        try:
            for engine in (a, b):
                engine.attach("r", small_csv)
                engine.query("select sum(a2) from r")
            assert a.config.splitfile_dir != b.config.splitfile_dir
            a.close()
            got = b.query("select sum(a3) from r").scalar()
            assert got == int(small_columns[2].sum())
            assert cfg.splitfile_dir is None
        finally:
            a.close()
            b.close()

    def test_set_policy_does_not_leak_into_a_sibling(
        self, small_csv, small_columns
    ):
        cfg = EngineConfig(policy="splitfiles")
        c1, c2 = NoDBEngine(cfg), NoDBEngine(cfg)
        try:
            c1.set_policy("partial_v1")
            assert cfg.policy == "splitfiles"
            assert c2.config.policy == "splitfiles"
            c2.attach("r", small_csv)
            got = c2.query("select sum(a1) from r").scalar()
            assert got == int(small_columns[0].sum())
        finally:
            c1.close()
            c2.close()


class TestMultiTable:
    def test_join_through_engine(self, tmp_path):
        lp, rp = materialize_join_pair(300, tmp_path / "l.csv", tmp_path / "r.csv")
        engine = NoDBEngine()
        engine.attach("l", lp)
        engine.attach("rt", rp)
        r = engine.query(
            "select count(*) from l join rt on l.a1 = rt.a1"
        )
        assert r.scalar() == 300  # perfect 1-to-1 join
        engine.close()
