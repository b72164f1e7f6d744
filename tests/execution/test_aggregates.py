"""Tests for global and grouped aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.execution.aggregates import global_aggregate, group_ids, grouped_aggregate
from repro.strings import StringColumn


class TestGlobal:
    def test_count_star(self):
        assert global_aggregate("count", None, 7) == 7

    def test_basic_aggregates(self):
        v = np.array([3, 1, 4, 1, 5])
        assert global_aggregate("sum", v, 5) == 14
        assert global_aggregate("min", v, 5) == 1
        assert global_aggregate("max", v, 5) == 5
        assert global_aggregate("avg", v, 5) == pytest.approx(2.8)
        assert global_aggregate("count", v, 5) == 5

    def test_distinct(self):
        v = np.array([1, 1, 2, 2, 3])
        assert global_aggregate("count", v, 5, distinct=True) == 3
        assert global_aggregate("sum", v, 5, distinct=True) == 6

    def test_empty_input_gives_nan(self):
        v = np.empty(0, dtype=np.int64)
        assert math.isnan(global_aggregate("sum", v, 0))
        assert global_aggregate("count", v, 0) == 0

    def test_string_min_max(self):
        v = StringColumn.encode(["pear", "apple", "fig", "apple"])
        assert global_aggregate("min", v, 4) == "apple"
        assert global_aggregate("max", v, 4) == "pear"
        assert global_aggregate("count", v, 4, distinct=True) == 3

    def test_string_sum_is_an_error(self):
        v = StringColumn.encode(["1", "2"])
        for func in ("sum", "avg"):
            with pytest.raises(ExecutionError):
                global_aggregate(func, v, 2)

    def test_unknown_func(self):
        with pytest.raises(ExecutionError):
            global_aggregate("median", np.array([1]), 1)

    def test_missing_arg(self):
        with pytest.raises(ExecutionError):
            global_aggregate("sum", None, 3)


class TestGrouped:
    def _groups(self, *keys):
        return group_ids([np.asarray(k) for k in keys])

    def test_single_key(self):
        order, starts, key_values = self._groups([2, 1, 2, 1, 3])
        assert key_values[0].tolist() == [1, 2, 3]
        sizes = np.diff(np.append(starts, 5))
        assert sizes.tolist() == [2, 2, 1]

    def test_multi_key(self):
        order, starts, kv = self._groups([1, 1, 2, 2], [9, 9, 8, 9])
        assert kv[0].tolist() == [1, 2, 2]
        assert kv[1].tolist() == [9, 8, 9]

    def test_grouped_sum(self):
        keys = np.array([1, 2, 1, 2, 1])
        values = np.array([10, 20, 30, 40, 50])
        order, starts, _ = group_ids([keys])
        out = grouped_aggregate("sum", values, order, starts)
        assert out.tolist() == [90, 60]

    def test_grouped_min_max_avg_count(self):
        keys = np.array([1, 1, 2])
        values = np.array([5, 3, 7])
        order, starts, _ = group_ids([keys])
        assert grouped_aggregate("min", values, order, starts).tolist() == [3, 7]
        assert grouped_aggregate("max", values, order, starts).tolist() == [5, 7]
        assert grouped_aggregate("avg", values, order, starts).tolist() == [4.0, 7.0]
        assert grouped_aggregate("count", None, order, starts).tolist() == [2, 1]

    def test_grouped_distinct(self):
        keys = np.array([1, 1, 1, 2])
        values = np.array([5, 5, 6, 7])
        order, starts, _ = group_ids([keys])
        out = grouped_aggregate("count", values, order, starts, distinct=True)
        assert out.tolist() == [2, 1]

    def test_grouped_strings(self):
        keys = np.array([1, 2, 1])
        values = StringColumn.encode(["b", "c", "a"])
        order, starts, _ = group_ids([keys])
        out = grouped_aggregate("min", values, order, starts)
        assert out.decode().tolist() == ["a", "c"]

    def test_string_keys_group_in_string_order(self):
        keys = StringColumn.encode(["é", "b", "", "b", "é"])
        order, starts, key_values = group_ids([keys])
        assert key_values[0].decode().tolist() == ["", "b", "é"]
        sizes = np.diff(np.append(starts, 5))
        assert sizes.tolist() == [1, 2, 2]

    def test_empty_input(self):
        order, starts, kv = group_ids([np.empty(0, dtype=np.int64)])
        assert len(starts) == 0
        assert grouped_aggregate("sum", np.empty(0), order, starts).size == 0


class TestGroupedAgainstBruteForce:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(-100, 100)),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from(["sum", "min", "max", "avg", "count"]),
    )
    def test_matches_python_groupby(self, pairs, func):
        keys = np.array([k for k, _ in pairs])
        values = np.array([v for _, v in pairs])
        order, starts, key_values = group_ids([keys])
        got = grouped_aggregate(func, values if func != "count" else values, order, starts)
        expected = {}
        for k, v in pairs:
            expected.setdefault(k, []).append(v)
        for key, result in zip(key_values[0], got):
            vals = expected[int(key)]
            if func == "sum":
                assert result == sum(vals)
            elif func == "min":
                assert result == min(vals)
            elif func == "max":
                assert result == max(vals)
            elif func == "avg":
                assert result == pytest.approx(sum(vals) / len(vals))
            else:
                assert result == len(vals)
