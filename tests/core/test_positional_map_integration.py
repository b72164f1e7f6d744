"""Integration tests: the positional map measurably reduces the bytes read.

Section 4.1.5: "Every time we touch a file, we learn a bit more about its
structure ... identifying and exploiting this knowledge in the future can
bring significant benefits."
"""

import pytest

from repro import EngineConfig, NoDBEngine


@pytest.fixture
def wide_engine_factory(wide_csv):
    engines = []

    def make(**kwargs):
        engine = NoDBEngine(EngineConfig(policy="column_loads", **kwargs))
        engine.attach("w", wide_csv)
        engines.append(engine)
        return engine

    yield make
    for e in engines:
        e.close()


EARLY = "select sum(a1), avg(a2) from w where a1 > 5 and a1 < 250"
LATE = "select sum(a11), avg(a12) from w where a11 > 5 and a11 < 250"
MID = "select sum(a6) from w"


class TestLearning:
    def test_map_populated_by_loads(self, wide_engine_factory):
        engine = wide_engine_factory(use_positional_map=True)
        engine.query(EARLY)
        pmap = engine.catalog.get("w").positional_map
        assert pmap.nrows == 300
        assert pmap.knows_column(0)
        assert pmap.knows_column(1)

    def test_map_disabled_stays_empty(self, wide_engine_factory):
        engine = wide_engine_factory(use_positional_map=False)
        engine.query(EARLY)
        pmap = engine.catalog.get("w").positional_map
        assert pmap.nrows is None


class TestExploitation:
    def test_second_load_tokenizes_less_with_map(self, wide_csv):
        def chars_scanned(use_map: bool) -> int:
            engine = NoDBEngine(
                EngineConfig(policy="column_loads", use_positional_map=use_map)
            )
            engine.attach("w", wide_csv)
            engine.query(MID)  # learn the spans of every column
            engine.query(LATE)  # then read just the last two columns
            count = engine.stats.last().tokenizer.chars_scanned
            engine.close()
            return count

        with_map = chars_scanned(True)
        without_map = chars_scanned(False)
        assert with_map < without_map

    def test_map_does_not_change_answers(self, wide_csv):
        results = []
        for use_map in (True, False):
            engine = NoDBEngine(
                EngineConfig(policy="column_loads", use_positional_map=use_map)
            )
            engine.attach("w", wide_csv)
            engine.query(MID)
            results.append(engine.query(LATE))
            engine.close()
        assert results[0].approx_equal(results[1])

    def test_map_helps_partial_loads_too(self, wide_csv):
        def bytes_read(use_map: bool) -> int:
            engine = NoDBEngine(
                EngineConfig(policy="partial_v2", use_positional_map=use_map)
            )
            engine.attach("w", wide_csv)
            engine.query(MID)
            engine.query(LATE)
            total = engine.stats.last().file_bytes_read
            engine.close()
            return total

        assert bytes_read(True) < bytes_read(False)

    def test_map_cleared_on_invalidation(self, tmp_path):
        import time

        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,4\n")
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", path)
        engine.query("select sum(a2) from t")
        assert engine.catalog.get("t").positional_map.nrows == 2
        time.sleep(0.02)
        path.write_text("1,2\n3,4\n5,6\n")
        engine.query("select sum(a2) from t")
        assert engine.catalog.get("t").positional_map.nrows == 3
        engine.close()
