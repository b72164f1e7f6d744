"""Tests for policy switching and the auto-tuning loop (section 5.3)."""

import io

import pytest

from repro.cli import _follow_advice
from repro.core.monitor import PolicyAdvice

SQL = "select sum(a1), avg(a2) from r where a1 > 50 and a1 < 300"


class TestSetPolicy:
    def test_switch_preserves_answers(self, engine_factory):
        engine = engine_factory("external")
        before = engine.query(SQL)
        engine.set_policy("column_loads")
        after = engine.query(SQL)
        again = engine.query(SQL)
        assert before.approx_equal(after)
        assert engine.stats.last().served_from_store

    def test_switch_keeps_loaded_store(self, engine_factory):
        engine = engine_factory("fullload")
        engine.query(SQL)
        engine.set_policy("partial_v2")
        engine.query(SQL)
        q = engine.stats.last()
        assert q.served_from_store  # full certificates survive the switch
        assert q.file_bytes_read == 0

    def test_partial_fragments_superseded_by_column_loads(self, engine_factory):
        engine = engine_factory("partial_v2")
        engine.query(SQL)
        engine.set_policy("column_loads")
        result = engine.query(SQL)
        table = engine.catalog.get("r").table
        assert sorted(table.fully_loaded_columns()) == ["a1", "a2"]
        ref = engine_factory("fullload").query(SQL)
        assert result.approx_equal(ref)

    def test_unknown_policy_rejected_without_corruption(self, engine_factory):
        engine = engine_factory("column_loads")
        with pytest.raises(ValueError):
            engine.set_policy("voodoo")
        assert engine.config.policy == "column_loads"
        engine.query(SQL)  # still works

    def test_noop_switch(self, engine_factory):
        engine = engine_factory("column_loads")
        engine.set_policy("column_loads")
        assert engine.config.policy == "column_loads"


def run_auto(engine, n):
    """The ``repro --auto`` loop: query, then follow the monitor's advice.

    Returns the answers and the printed switch lines, one per switch.
    """
    out = io.StringIO()
    results = []
    for _ in range(n):
        results.append(engine.query(SQL))
        _follow_advice(engine, out)
    return results, out.getvalue().splitlines()


class TestAutoTuning:
    def test_switches_away_from_stateless_on_repeats(self, engine_factory):
        engine = engine_factory("external")
        results, switches = run_auto(engine, 12)
        assert engine.config.policy == "splitfiles"
        assert len(switches) == 1
        assert switches[0].startswith("-- auto-tuner: switched external -> splitfiles (")
        assert "re-read" in switches[0]
        # Every answer identical before/after the switch.
        assert all(r.approx_equal(results[0]) for r in results)

    def test_no_switch_for_healthy_policy(self, engine_factory):
        engine = engine_factory("column_loads")
        _, switches = run_auto(engine, 12)
        assert engine.config.policy == "column_loads"
        assert not switches

    def test_first_switch_at_query_8(self, engine_factory):
        """The window needs 8 queries: none switches at 7, the 8th does."""
        engine = engine_factory("external")
        _, switches = run_auto(engine, 7)
        assert not switches
        assert engine.config.policy == "external"
        _, switches = run_auto(engine, 1)
        assert len(switches) == 1
        assert engine.config.policy == "splitfiles"

    def test_no_second_switch_after_the_first(self, engine_factory):
        """Hysteresis: pre-switch records never count toward the new
        policy's window, so the switch cannot fire twice."""
        engine = engine_factory("external")
        _, first = run_auto(engine, 9)
        assert len(first) == 1
        # A window mixing both policies gives no advice.
        assert engine.monitor.advise() is None
        _, later = run_auto(engine, 10)
        # splitfiles now serves from the store: healthy, no flapping.
        assert not later
        assert engine.config.policy == "splitfiles"

    def test_advice_naming_running_policy_is_noop(self, engine_factory, monkeypatch):
        engine = engine_factory("column_loads")
        monkeypatch.setattr(
            engine.monitor,
            "advise",
            lambda: PolicyAdvice(switch_to="column_loads", reason="noop"),
        )
        _, switches = run_auto(engine, 6)
        assert not switches
        assert engine.config.policy == "column_loads"
