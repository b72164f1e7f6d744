"""Tests for the exploratory zoom workload and its V2 interaction."""

import pytest

from benchmarks.workload import exploration_sequence
from repro import EngineConfig, NoDBEngine


class TestSequenceStructure:
    def test_nesting(self):
        seq = exploration_sequence(1000, depth=4, regions=2)
        # Within each region, every query's ranges nest in the previous.
        per_region = len(seq) // 2
        for r in range(2):
            chunk = seq[r * per_region : (r + 1) * per_region]
            for prev, cur in zip(chunk, chunk[1:]):
                for (plo, phi), (clo, chi) in zip(prev.bounds, cur.bounds):
                    assert plo <= clo and chi <= phi

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            exploration_sequence(100, depth=0)

    def test_deterministic(self):
        a = [q.sql for q in exploration_sequence(500, seed=3)]
        b = [q.sql for q in exploration_sequence(500, seed=3)]
        assert a == b


class TestZoomWorkloadOnPolicies:
    def test_v2_serves_all_zoom_ins_from_store(self, small_csv):
        engine = NoDBEngine(EngineConfig(policy="partial_v2"))
        engine.attach("r", small_csv)
        seq = exploration_sequence(500, depth=4, regions=1, seed=9)
        for q in seq:
            engine.query(q.sql)
        # First query loads; every nested zoom-in is covered by its cert.
        flags = [q.served_from_store for q in engine.stats.queries]
        assert flags[0] is False
        assert all(flags[1:])
        engine.close()

    def test_v2_zoom_answers_match_fullload(self, small_csv):
        v2 = NoDBEngine(EngineConfig(policy="partial_v2"))
        full = NoDBEngine(EngineConfig(policy="fullload"))
        v2.attach("r", small_csv)
        full.attach("r", small_csv)
        for q in exploration_sequence(500, depth=4, regions=2, seed=21):
            assert v2.query(q.sql).approx_equal(full.query(q.sql)), q.sql
        v2.close()
        full.close()

    def test_v1_never_benefits_from_zooming(self, small_csv):
        engine = NoDBEngine(EngineConfig(policy="partial_v1"))
        engine.attach("r", small_csv)
        for q in exploration_sequence(500, depth=4, regions=1, seed=9):
            engine.query(q.sql)
        assert engine.stats.queries_from_store == 0
        engine.close()

    def test_v2_beats_v1_on_file_bytes(self, small_csv):
        def total_bytes(policy):
            engine = NoDBEngine(EngineConfig(policy=policy))
            engine.attach("r", small_csv)
            for q in exploration_sequence(500, depth=5, regions=2, seed=33):
                engine.query(q.sql)
            total = engine.stats.total_file_bytes
            engine.close()
            return total

        assert total_bytes("partial_v2") < 0.5 * total_bytes("partial_v1")
