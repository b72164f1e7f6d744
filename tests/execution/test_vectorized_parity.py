"""Scalar-parity tests for the vectorized join and aggregate kernels.

The vectorized implementations (argsort + searchsorted run expansion in
``joins.py``; sort-within-group boundary reduction in ``aggregates.py``)
must agree exactly with a deliberately naive scalar reference on random
inputs — duplicates, strings, non-ASCII, empty groups and all.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.aggregates import group_ids, grouped_aggregate
from repro.execution.joins import hash_join, merge_join
from repro.strings import StringColumn

# ---------------------------------------------------------------------------
# scalar references
# ---------------------------------------------------------------------------


def scalar_join_pairs(left, right):
    """The obviously correct O(n*m) nested-loop equi-join."""
    return sorted(
        (i, j)
        for i, lv in enumerate(left)
        for j, rv in enumerate(right)
        if lv == rv
    )


def scalar_grouped(func, values, keys, distinct=False):
    """Per-group Python reduction over a dict of lists, in key order."""
    groups: dict = {}
    for k, v in zip(keys, values):
        groups.setdefault(k, []).append(v)
    out = []
    for k in sorted(groups):
        seg = groups[k]
        if distinct:
            seg = sorted(set(seg))
        if func == "count":
            out.append(len(seg))
        elif func == "sum":
            out.append(sum(seg))
        elif func == "min":
            out.append(min(seg))
        elif func == "max":
            out.append(max(seg))
        elif func == "avg":
            out.append(sum(seg) / len(seg))
    return out


def pairs_of(result):
    li, ri = result
    return sorted(zip(li.tolist(), ri.tolist()))


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------

_int_keys = st.lists(st.integers(-5, 5), min_size=0, max_size=40)
_str_keys = st.lists(
    st.sampled_from(["vb", "vc", "vß", "vあ", "vd", "ve"]),
    min_size=0,
    max_size=40,
)


class TestJoinParity:
    @settings(max_examples=120, deadline=None)
    @given(left=_int_keys, right=_int_keys)
    def test_int_keys_match_nested_loop(self, left, right):
        l, r = np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)
        want = scalar_join_pairs(left, right)
        assert pairs_of(hash_join(l, r)) == want
        assert pairs_of(merge_join(l, r)) == want

    @settings(max_examples=60, deadline=None)
    @given(left=_str_keys, right=_str_keys)
    def test_string_keys_match_nested_loop(self, left, right):
        l = np.asarray(left, dtype=object)
        r = np.asarray(right, dtype=object)
        want = scalar_join_pairs(left, right)
        assert pairs_of(hash_join(l, r)) == want
        assert pairs_of(merge_join(l, r)) == want

    @settings(max_examples=60, deadline=None)
    @given(left=_int_keys, right=_int_keys)
    def test_float_vs_int_keys(self, left, right):
        l = np.asarray(left, dtype=np.float64)
        r = np.asarray(right, dtype=np.int64)
        want = scalar_join_pairs(left, right)
        assert pairs_of(hash_join(l, r)) == want
        assert pairs_of(merge_join(l, r)) == want

    def test_heavy_duplicates_cross_product(self):
        l = np.asarray([7] * 50 + [3] * 3, dtype=np.int64)
        r = np.asarray([3] * 4 + [7] * 20, dtype=np.int64)
        want = scalar_join_pairs(l.tolist(), r.tolist())
        assert len(want) == 50 * 20 + 3 * 4
        assert pairs_of(hash_join(l, r)) == want
        assert pairs_of(merge_join(l, r)) == want

    def test_nan_matches_nothing(self):
        l = np.asarray([1.0, np.nan, 2.0, np.nan])
        r = np.asarray([np.nan, 1.0, np.nan])
        assert pairs_of(hash_join(l, r)) == [(0, 1)]
        assert pairs_of(merge_join(l, r)) == [(0, 1)]

    def test_string_vs_numeric_never_matches(self):
        l = np.asarray(["5", "6"], dtype=object)
        r = np.asarray([5, 6], dtype=np.int64)
        assert pairs_of(hash_join(l, r)) == []
        assert pairs_of(merge_join(l, r)) == []


# ---------------------------------------------------------------------------
# grouped aggregation (DISTINCT and string-rank paths)
# ---------------------------------------------------------------------------


def _run_grouped(func, values_list, keys_list, distinct):
    keys = np.asarray(keys_list, dtype=np.int64)
    if isinstance(values_list[0], str):
        values = StringColumn.encode(values_list)
    else:
        values = np.asarray(values_list)
    order, starts, _ = group_ids([keys])
    out = grouped_aggregate(func, values, order, starts, distinct=distinct)
    return out.decode() if isinstance(out, StringColumn) else out


_grouped_ints = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-9, 9)), min_size=1, max_size=60
)


class TestGroupedParity:
    @settings(max_examples=120, deadline=None)
    @given(rows=_grouped_ints, distinct=st.booleans())
    @pytest.mark.parametrize("func", ["count", "sum", "min", "max", "avg"])
    def test_int_values(self, func, rows, distinct):
        keys = [k for k, _ in rows]
        values = [v for _, v in rows]
        got = _run_grouped(func, values, keys, distinct).tolist()
        want = scalar_grouped(func, values, keys, distinct)
        if func == "avg":
            assert got == pytest.approx(want)
        else:
            assert got == want

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(-3, 3),
                st.sampled_from(["vb", "vc", "vß", "vあ", "vd"]),
            ),
            min_size=1,
            max_size=50,
        ),
        distinct=st.booleans(),
    )
    @pytest.mark.parametrize("func", ["count", "min", "max"])
    def test_string_values(self, func, rows, distinct):
        keys = [k for k, _ in rows]
        values = [v for _, v in rows]
        got = _run_grouped(func, values, keys, distinct).tolist()
        assert got == scalar_grouped(func, values, keys, distinct)

    def test_distinct_collapses_nan_like_np_unique(self):
        keys = np.asarray([0, 0, 0, 1, 1], dtype=np.int64)
        values = np.asarray([np.nan, np.nan, 1.0, np.nan, 2.0])
        order, starts, _ = group_ids([keys])
        counts = grouped_aggregate("count", values, order, starts, distinct=True)
        assert counts.tolist() == [2, 2]

    def test_distinct_sum_dedupes_within_group_only(self):
        keys = np.asarray([0, 0, 1, 1], dtype=np.int64)
        values = np.asarray([5, 5, 5, 7], dtype=np.int64)
        order, starts, _ = group_ids([keys])
        sums = grouped_aggregate("sum", values, order, starts, distinct=True)
        assert sums.tolist() == [5, 12]
