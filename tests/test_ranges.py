"""Tests for value intervals and conjunctive conditions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ranges import Condition, ValueInterval


class TestValueInterval:
    def test_unbounded_contains_everything(self):
        iv = ValueInterval.unbounded()
        for v in (-(10**12), 0, 3.14, 10**12):
            assert iv.contains_value(v)

    def test_open_interval_excludes_endpoints(self):
        iv = ValueInterval(10, 20)
        assert not iv.contains_value(10)
        assert not iv.contains_value(20)
        assert iv.contains_value(11)
        assert iv.contains_value(19)

    def test_closed_interval_includes_endpoints(self):
        iv = ValueInterval(10, 20, lo_open=False, hi_open=False)
        assert iv.contains_value(10)
        assert iv.contains_value(20)

    def test_equal_interval(self):
        iv = ValueInterval.equal(5)
        assert iv.contains_value(5)
        assert not iv.contains_value(4)
        assert not iv.contains_value(6)

    def test_half_bounded(self):
        lo_only = ValueInterval(5, None)
        assert lo_only.contains_value(10**9)
        assert not lo_only.contains_value(5)
        hi_only = ValueInterval(None, 5)
        assert hi_only.contains_value(-(10**9))
        assert not hi_only.contains_value(5)

    def test_is_empty(self):
        assert ValueInterval(5, 4).is_empty()
        assert ValueInterval(5, 5).is_empty()  # open at both ends
        assert not ValueInterval(5, 5, lo_open=False, hi_open=False).is_empty()
        assert not ValueInterval(4, 5).is_empty()
        assert not ValueInterval.unbounded().is_empty()

    def test_contains_interval_basic(self):
        outer = ValueInterval(0, 100)
        inner = ValueInterval(10, 90)
        assert outer.contains_interval(inner)
        assert not inner.contains_interval(outer)

    def test_contains_interval_same_bounds_openness(self):
        open_iv = ValueInterval(0, 10)
        closed_iv = ValueInterval(0, 10, lo_open=False, hi_open=False)
        assert closed_iv.contains_interval(open_iv)
        assert not open_iv.contains_interval(closed_iv)

    def test_contains_interval_unbounded_sides(self):
        assert ValueInterval.unbounded().contains_interval(ValueInterval(1, 2))
        assert not ValueInterval(1, None).contains_interval(ValueInterval.unbounded())
        assert ValueInterval(None, 10).contains_interval(ValueInterval(None, 10))

    def test_contains_empty_interval_always(self):
        assert ValueInterval(100, 200).contains_interval(ValueInterval(5, 4))

    def test_intersect_overlapping(self):
        a = ValueInterval(0, 10)
        b = ValueInterval(5, 20)
        c = a.intersect(b)
        assert c.lo == 5 and c.hi == 10

    def test_intersect_openness_tightens(self):
        a = ValueInterval(0, 10, lo_open=False, hi_open=False)
        b = ValueInterval(0, 10, lo_open=True, hi_open=True)
        c = a.intersect(b)
        assert c.lo_open and c.hi_open

    def test_mask_matches_scalar(self):
        values = np.arange(20)
        iv = ValueInterval(5, 15)
        mask = iv.mask(values)
        expected = np.array([iv.contains_value(int(v)) for v in values])
        assert (mask == expected).all()

    def test_mask_closed_bounds(self):
        values = np.arange(10)
        iv = ValueInterval(2, 7, lo_open=False, hi_open=False)
        assert iv.mask(values).sum() == 6


@st.composite
def intervals(draw):
    lo = draw(st.one_of(st.none(), st.integers(-100, 100)))
    hi = draw(st.one_of(st.none(), st.integers(-100, 100)))
    return ValueInterval(
        lo, hi, lo_open=draw(st.booleans()), hi_open=draw(st.booleans())
    )


class TestIntervalProperties:
    @given(intervals(), intervals(), st.integers(-150, 150))
    def test_containment_implies_membership(self, a, b, v):
        """If a contains b, every member of b is a member of a."""
        if a.contains_interval(b) and b.contains_value(v):
            assert a.contains_value(v)

    @given(intervals(), intervals(), st.integers(-150, 150))
    def test_intersection_is_conjunction(self, a, b, v):
        both = a.contains_value(v) and b.contains_value(v)
        assert a.intersect(b).contains_value(v) == both

    @given(intervals(), st.lists(st.integers(-150, 150), min_size=1, max_size=30))
    def test_mask_agrees_with_contains(self, iv, values):
        arr = np.array(values, dtype=np.int64)
        mask = iv.mask(arr)
        for got, v in zip(mask, values):
            assert bool(got) == iv.contains_value(v)


class TestCondition:
    def test_trivial(self):
        c = Condition()
        assert c.is_trivial()
        assert c.interval_for("anything").is_unbounded()

    def test_merging_same_column(self):
        c = Condition(
            [("a1", ValueInterval(0, 100)), ("A1", ValueInterval(50, 200))]
        )
        iv = c.interval_for("a1")
        assert iv.lo == 50 and iv.hi == 100

    def test_implies_reflexive(self):
        c = Condition([("a1", ValueInterval(0, 10))])
        assert c.implies(c)

    def test_implies_trivial(self):
        c = Condition([("a1", ValueInterval(0, 10))])
        assert c.implies(Condition())
        assert not Condition().implies(c)

    def test_narrower_implies_wider(self):
        wide = Condition([("a1", ValueInterval(0, 100))])
        narrow = Condition([("a1", ValueInterval(10, 20))])
        assert narrow.implies(wide)
        assert not wide.implies(narrow)

    def test_extra_conjuncts_strengthen(self):
        one = Condition([("a1", ValueInterval(0, 100))])
        two = Condition(
            [("a1", ValueInterval(0, 100)), ("a2", ValueInterval(5, 6))]
        )
        assert two.implies(one)
        assert not one.implies(two)

    def test_disjoint_columns_do_not_imply(self):
        a = Condition([("a1", ValueInterval(0, 10))])
        b = Condition([("a2", ValueInterval(0, 10))])
        assert not a.implies(b)
        assert not b.implies(a)

    def test_equality_and_hash(self):
        a = Condition([("a1", ValueInterval(0, 10)), ("a2", ValueInterval(1, 2))])
        b = Condition([("A2", ValueInterval(1, 2)), ("A1", ValueInterval(0, 10))])
        assert a == b
        assert hash(a) == hash(b)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a1", "a2", "a3"]), intervals()),
            max_size=4,
        ),
        st.lists(
            st.tuples(st.sampled_from(["a1", "a2", "a3"]), intervals()),
            max_size=4,
        ),
        st.dictionaries(
            st.sampled_from(["a1", "a2", "a3"]), st.integers(-150, 150),
            min_size=3, max_size=3,
        ),
    )
    def test_implication_soundness(self, items_a, items_b, row):
        """If A implies B, every row satisfying A satisfies B."""
        a, b = Condition(items_a), Condition(items_b)

        def satisfies(cond):
            return all(iv.contains_value(row[col]) for col, iv in cond.items)

        if a.implies(b) and satisfies(a):
            assert satisfies(b)
