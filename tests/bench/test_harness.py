"""Tests for the bench harness and report formatting."""

from benchmarks.harness import (
    Series,
    format_ratio_line,
    format_series_table,
    run_sequence,
    time_callable,
)
from repro import NoDBEngine


class TestSeries:
    def test_aggregates(self):
        import pytest

        s = Series("x", times_s=[1.0, 0.1, 0.1])
        assert s.total_s == pytest.approx(1.2)
        assert s.first_query_s == 1.0
        assert s.steady_state_s() == pytest.approx(0.1)

    def test_empty(self):
        s = Series("x")
        assert s.total_s == 0
        assert s.first_query_s != s.first_query_s  # NaN


class TestRunSequence:
    def test_captures_engine_counters(self, small_csv):
        engine = NoDBEngine()
        engine.attach("r", small_csv)
        sqls = [
            "select sum(a1) from r where a1 > 5 and a1 < 100",
            "select sum(a1) from r where a1 > 5 and a1 < 100",
        ]
        series = run_sequence("test", engine, sqls)
        assert len(series.times_s) == 2
        assert series.bytes_read[0] > 0
        assert series.bytes_read[1] == 0
        assert series.from_store == [False, True]
        engine.close()

    def test_works_without_stats(self):
        class Dummy:
            def query(self, sql):
                return None

        series = run_sequence("dummy", Dummy(), ["q1"])
        assert series.bytes_read == [0]


class TestReport:
    def test_table_format(self):
        a = Series("fast", times_s=[0.001, 0.002], from_store=[False, True])
        b = Series("slow", times_s=[0.1, 0.2], from_store=[False, False])
        text = format_series_table("My Figure", [a, b])
        assert "My Figure" in text
        assert "fast" in text and "slow" in text
        assert "2.00*" in text  # store-served marker
        assert "total" in text

    def test_markdown_format(self):
        s = Series("only", times_s=[0.5])
        text = format_series_table("T", [s], markdown=True)
        assert "| query | only |" in text
        assert text.startswith("### T")

    def test_uneven_series_lengths(self):
        a = Series("a", times_s=[0.1])
        b = Series("b", times_s=[0.1, 0.2])
        text = format_series_table("T", [a, b])
        assert "-" in text

    def test_ratio_line(self):
        assert "2.00x" in format_ratio_line("speedup", 2.0, 1.0)
        assert "n/a" in format_ratio_line("speedup", 2.0, 0.0)


def test_time_callable():
    assert time_callable(lambda: sum(range(100))) >= 0.0
