"""Tests for the interval-set table of contents, incl. hypothesis laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.intervals import IntervalSet

interval_lists = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 200)), max_size=8
)


def _as_set(s: IntervalSet) -> set[int]:
    return set(s.indices().tolist())


def _ref_set(pairs) -> set[int]:
    out = set()
    for a, b in pairs:
        out.update(range(a, b))
    return out


class TestConstruction:
    def test_empty(self):
        s = IntervalSet()
        assert not s
        assert len(s) == 0
        assert list(s.indices()) == []

    def test_from_range(self):
        s = IntervalSet.from_range(2, 5)
        assert len(s) == 3
        assert 2 in s and 4 in s and 5 not in s

    def test_from_empty_range(self):
        assert not IntervalSet.from_range(5, 5)
        assert not IntervalSet.from_range(7, 3)

    def test_from_indices_coalesces(self):
        s = IntervalSet.from_indices([5, 1, 2, 3, 9, 10])
        assert s.intervals == [(1, 4), (5, 6), (9, 11)]

    def test_from_indices_deduplicates(self):
        s = IntervalSet.from_indices([1, 1, 2, 2])
        assert s.intervals == [(1, 3)]

    def test_normalization_on_init(self):
        s = IntervalSet([(5, 10), (0, 6), (12, 12)])
        assert s.intervals == [(0, 10)]


class TestMembership:
    def test_contains(self):
        s = IntervalSet([(0, 3), (10, 12)])
        assert 0 in s and 2 in s and 10 in s and 11 in s
        assert 3 not in s and 9 not in s and 12 not in s

    def test_covers(self):
        s = IntervalSet([(0, 10)])
        assert s.covers(0, 10)
        assert s.covers(3, 7)
        assert not s.covers(5, 11)
        assert s.covers(5, 5)  # empty range trivially covered

    def test_covers_across_gap_fails(self):
        s = IntervalSet([(0, 5), (6, 10)])
        assert not s.covers(3, 8)

    def test_covers_set(self):
        outer = IntervalSet([(0, 10), (20, 30)])
        assert outer.covers_set(IntervalSet([(1, 3), (25, 29)]))
        assert not outer.covers_set(IntervalSet([(1, 3), (15, 16)]))


class TestOperations:
    def test_add_merges_adjacent(self):
        s = IntervalSet([(0, 5)])
        s.add(5, 8)
        assert s.intervals == [(0, 8)]

    def test_intersect(self):
        a = IntervalSet([(0, 10), (20, 30)])
        b = IntervalSet([(5, 25)])
        assert a.intersect(b).intervals == [(5, 10), (20, 25)]

    def test_mask(self):
        s = IntervalSet([(1, 3)])
        assert s.mask(5).tolist() == [False, True, True, False, False]


class TestInvariants:
    @settings(max_examples=100, deadline=None)
    @given(interval_lists)
    def test_normalized_structure(self, pairs):
        s = IntervalSet(list(pairs))
        for (a1, b1), (a2, b2) in zip(s.intervals, s.intervals[1:]):
            assert a1 < b1
            assert b1 < a2  # disjoint AND non-adjacent (coalesced)
        assert _as_set(s) == _ref_set(pairs)

    @settings(max_examples=100, deadline=None)
    @given(interval_lists, interval_lists)
    def test_union_semantics(self, a, b):
        sa, sb = IntervalSet(list(a)), IntervalSet(list(b))
        assert _as_set(sa.union(sb)) == _ref_set(a) | _ref_set(b)

    @settings(max_examples=100, deadline=None)
    @given(interval_lists, interval_lists)
    def test_intersect_semantics(self, a, b):
        sa, sb = IntervalSet(list(a)), IntervalSet(list(b))
        assert _as_set(sa.intersect(sb)) == _ref_set(a) & _ref_set(b)

    @settings(max_examples=50, deadline=None)
    @given(interval_lists, st.integers(0, 210))
    def test_contains_agrees_with_reference(self, pairs, x):
        s = IntervalSet(list(pairs))
        assert (x in s) == (x in _ref_set(pairs))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 500), max_size=60))
    def test_from_indices_round_trip(self, xs):
        s = IntervalSet.from_indices(xs)
        assert _as_set(s) == set(xs)
        assert len(s) == len(set(xs))
