"""Tests for flat-file edit detection and derived-data invalidation (5.4).

"Every time a flat file is updated, we can simply drop all relevant tables
that have been created with data from this file."
"""

import time

import pytest

from repro import EngineConfig, NoDBEngine


@pytest.fixture
def editable_csv(tmp_path):
    path = tmp_path / "edit.csv"
    path.write_text("\n".join(f"{i},{i * 10}" for i in range(50)) + "\n")
    return path


def edit(path, nrows=60):
    time.sleep(0.02)  # ensure a distinct mtime
    path.write_text("\n".join(f"{i},{i * 100}" for i in range(nrows)) + "\n")


class TestAutoInvalidate:
    def test_edited_file_reflected_in_answers(self, editable_csv):
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", editable_csv)
        before = engine.query("select sum(a2) from t").scalar()
        edit(editable_csv)
        after = engine.query("select sum(a2) from t").scalar()
        assert before == sum(i * 10 for i in range(50))
        assert after == sum(i * 100 for i in range(60))
        engine.close()

    def test_row_count_change_supported(self, editable_csv):
        engine = NoDBEngine(EngineConfig(policy="partial_v2"))
        engine.attach("t", editable_csv)
        engine.query("select count(*) from t")
        edit(editable_csv, nrows=75)
        assert engine.query("select count(*) from t").scalar() == 75
        engine.close()

    def test_store_dropped_on_edit(self, editable_csv):
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", editable_csv)
        engine.query("select sum(a1) from t")
        assert engine.catalog.get("t").table is not None
        edit(editable_csv)
        engine.query("select sum(a1) from t")
        q = engine.stats.last()
        assert q.went_to_file  # reload happened
        engine.close()

    def test_split_files_invalidated(self, editable_csv):
        engine = NoDBEngine(EngineConfig(policy="splitfiles"))
        engine.attach("t", editable_csv)
        engine.query("select sum(a2) from t")
        split_dir = engine.catalog.get("t").split_catalog.directory
        assert any(split_dir.iterdir())
        edit(editable_csv)
        result = engine.query("select sum(a2) from t")
        assert result.scalar() == sum(i * 100 for i in range(60))
        assert not split_dir.exists()  # the old splits went with the edit
        engine.close()

    @pytest.mark.parametrize(
        "policy", ["fullload", "column_loads", "partial_v2", "splitfiles"]
    )
    def test_persistent_store_invalidated(self, policy, editable_csv, tmp_path):
        """An edit seen mid-session drops the file's store entry; the
        reload is persisted again and a restarted engine restores the new
        bytes, not the old ones."""
        cfg = EngineConfig(policy=policy, store_dir=tmp_path / "store")
        engine = NoDBEngine(cfg)
        engine.attach("t", editable_csv)
        engine.query("select sum(a2) from t")
        engine.flush_persistent_store()
        assert engine.persistent_store.entries()
        edit(editable_csv)
        expect = sum(i * 100 for i in range(60))
        assert engine.query("select sum(a2) from t").scalar() == expect
        assert engine.stats.counters.store_invalidations == 1
        engine.flush_persistent_store()
        engine.close()

        restarted = NoDBEngine(cfg)
        restarted.attach("t", editable_csv)
        assert restarted.query("select sum(a2) from t").scalar() == expect
        assert restarted.stats.counters.restart_warm_hits == 1
        restarted.close()

    def test_memory_manager_forgets_dropped_fragments(self, editable_csv):
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", editable_csv)
        engine.query("select sum(a1) from t")
        assert engine.memory.resident_bytes > 0
        edit(editable_csv)
        engine.query("select sum(a1) from t")
        # No stale fragments: resident equals the freshly loaded column.
        assert len(engine.memory.fragments) == 1
        engine.close()
