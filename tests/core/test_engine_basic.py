"""End-to-end engine tests: attach, query, stats, explain, lifecycle."""

import numpy as np
import pytest

from benchmarks.workload import materialize_join_pair
from repro import CatalogError, CSVEngine, EngineConfig, NoDBEngine
from repro.flatfile.writer import write_csv


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
            split_dir = engine.catalog.get("r").split_catalog.directory
            assert any(split_dir.iterdir())
        assert not split_dir.exists()  # cleaned up


class TestSharedConfig:
    """Each engine keeps its own copy of the config it was given, and
    each split catalog its own directory."""

    def test_split_catalogs_never_share_a_directory(self, tmp_path):
        rng = np.random.default_rng(34)
        paths = [
            write_csv(
                tmp_path / f"r{i}.csv",
                [rng.integers(0, 1000, size=300) for _ in range(4)],
            )
            for i in range(2)
        ]
        oracles = []
        for path in paths:
            oracle = CSVEngine()
            oracle.attach("r", path)
            oracles.append(oracle)
        sqls = [
            f"select sum({c}), min({c}), count(*) from r"
            for c in ("a3", "a1", "a4", "a2")
        ]
        # A one-byte budget keeps nothing loaded: every query re-reads
        # the split files.
        config = EngineConfig(policy="splitfiles", memory_budget_bytes=1)
        a, b = NoDBEngine(config), NoDBEngine(config)
        try:
            for engine, path in zip((a, b), paths):
                engine.attach("r", path)
            for sql in sqls + sqls:
                for engine, oracle in zip((a, b), oracles):
                    assert engine.query(sql).rows() == oracle.query(sql).rows()
            a_dir = a.catalog.get("r").split_catalog.directory
            assert a_dir != b.catalog.get("r").split_catalog.directory
            a.attach("s", paths[1])
            a.query("select sum(a2) from s")
            assert a.catalog.get("s").split_catalog.directory != a_dir
            a.close()
            assert not a_dir.exists()
            for sql in sqls:
                assert b.query(sql).rows() == oracles[1].query(sql).rows()
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
