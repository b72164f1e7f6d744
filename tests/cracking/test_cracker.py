"""Tests for database cracking — invariants, answer correctness and the
cost of one crack."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking.cracker import CrackerColumn
from repro.errors import ExecutionError
from repro.ranges import ValueInterval


class TestCrackBasics:
    def test_preserves_multiset(self):
        values = np.array([5, 3, 8, 1, 9, 2])
        c = CrackerColumn(values)
        c.crack(5, inclusive=False)
        assert sorted(c.values.tolist()) == sorted(values.tolist())

    def test_original_array_untouched(self):
        values = np.array([5, 3, 8])
        c = CrackerColumn(values)
        c.crack(5, inclusive=False)
        assert values.tolist() == [5, 3, 8]

    def test_lt_cut_partitions(self):
        c = CrackerColumn(np.array([5, 3, 8, 1, 9, 2]))
        pos = c.crack(5, inclusive=False)
        assert set(c.values[:pos]) == {3, 1, 2}
        assert set(c.values[pos:]) == {5, 8, 9}

    def test_le_cut_partitions(self):
        c = CrackerColumn(np.array([5, 3, 8, 1, 9, 2]))
        pos = c.crack(5, inclusive=True)
        assert set(c.values[:pos]) == {3, 1, 2, 5}

    def test_crack_idempotent(self):
        c = CrackerColumn(np.array([4, 2, 6]))
        p1 = c.crack(4, inclusive=False)
        moved = c.stats.rows_moved
        p2 = c.crack(4, inclusive=False)
        assert p1 == p2
        assert c.stats.rows_moved == moved

    def test_rowids_track_values(self):
        values = np.array([50, 30, 80, 10])
        c = CrackerColumn(values)
        c.crack(40, inclusive=False)
        for v, rid in zip(c.values, c.rowids):
            assert values[rid] == v

    def test_non_numeric_rejected(self):
        with pytest.raises(ExecutionError):
            CrackerColumn(np.array(["a", "b"], dtype=object))


class TestSelect:
    def test_open_interval(self):
        c = CrackerColumn(np.arange(100))
        vals = c.select_values(ValueInterval(10, 20))
        assert sorted(vals.tolist()) == list(range(11, 20))

    def test_closed_interval(self):
        c = CrackerColumn(np.arange(100))
        vals = c.select_values(ValueInterval(10, 20, lo_open=False, hi_open=False))
        assert sorted(vals.tolist()) == list(range(10, 21))

    def test_half_bounded(self):
        c = CrackerColumn(np.arange(10))
        assert sorted(c.select_values(ValueInterval(7, None)).tolist()) == [8, 9]
        assert sorted(c.select_values(ValueInterval(None, 2)).tolist()) == [0, 1]

    def test_unbounded(self):
        c = CrackerColumn(np.arange(5))
        assert len(c.select_values(ValueInterval.unbounded())) == 5

    def test_rowids_answer(self):
        values = np.array([9, 1, 7, 3, 5])
        c = CrackerColumn(values)
        rows = c.select_rowids(ValueInterval(2, 8))
        assert sorted(values[rows].tolist()) == [3, 5, 7]

    def test_pieces_shrink_work(self):
        rng = np.random.default_rng(5)
        c = CrackerColumn(rng.permutation(10000))
        c.select_values(ValueInterval(1000, 2000))
        moved_first = c.stats.rows_moved
        c.select_values(ValueInterval(1200, 1800))
        moved_second = c.stats.rows_moved - moved_first
        assert moved_second < moved_first


values_lists = st.lists(st.integers(0, 100), min_size=1, max_size=80)


class TestCrackingProperties:
    @settings(max_examples=60, deadline=None)
    @given(values_lists, st.lists(st.tuples(st.integers(0, 100), st.booleans()), max_size=8))
    def test_invariants_after_crack_sequence(self, values, cracks):
        c = CrackerColumn(np.array(values, dtype=np.int64))
        for pivot, inclusive in cracks:
            c.crack(pivot, inclusive=inclusive)
        c.check_invariants()
        assert sorted(c.values.tolist()) == sorted(values)
        base = np.array(values)
        assert all(base[r] == v for v, r in zip(c.values, c.rowids))

    @settings(max_examples=60, deadline=None)
    @given(
        values_lists,
        st.lists(
            st.tuples(
                st.integers(0, 100), st.integers(0, 100),
                st.booleans(), st.booleans(),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_select_matches_numpy(self, values, queries):
        arr = np.array(values, dtype=np.int64)
        c = CrackerColumn(arr)
        for lo, hi, lo_open, hi_open in queries:
            interval = ValueInterval(lo, hi, lo_open=lo_open, hi_open=hi_open)
            got = sorted(c.select_values(interval).tolist())
            expected = sorted(arr[interval.mask(arr)].tolist())
            assert got == expected
            got_rows = sorted(c.select_rowids(interval).tolist())
            expected_rows = sorted(np.nonzero(interval.mask(arr))[0].tolist())
            assert got_rows == expected_rows


class TestLongCrackSequences:
    """Thousands of cracks on one column: every cut position equals the
    count NumPy's mask gives over the base column, and so does every
    selection."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["int", "float"]))
    def test_two_thousand_cracks_match_numpy_masks(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "int":
            base = rng.integers(-500, 500, size=3000)
            # Repeated int pivots, and float ones both between and on the
            # integers (all well inside float64's exact range).
            pivots = np.concatenate(
                [rng.integers(-520, 520, size=1000), rng.integers(-1040, 1040, size=1000) / 2]
            ).tolist()
            pivots = [int(p) if i < 1000 else float(p) for i, p in enumerate(pivots)]
        else:
            base = rng.normal(scale=100.0, size=3000).round(1)
            base[rng.random(3000) < 0.05] = math.nan
            pivots = (rng.normal(scale=120.0, size=2000).round(1)).tolist()
        rng.shuffle(pivots)
        c = CrackerColumn(base)
        flavours = rng.integers(2, size=len(pivots)).astype(bool).tolist()
        for i, (pivot, inclusive) in enumerate(zip(pivots, flavours)):
            pos = c.crack(pivot, inclusive=inclusive)
            left = (base <= pivot) if inclusive else (base < pivot)
            assert pos == int(left.sum())
            if i % 50 == 0:
                lo, hi = sorted(rng.choice(pivots, size=2, replace=False).tolist())
                interval = ValueInterval(lo, hi, lo_open=bool(i % 100), hi_open=True)
                got = np.sort(c.select_rowids(interval))
                assert got.tolist() == np.flatnonzero(interval.mask(base)).tolist()
        c.check_invariants()
        assert np.array_equal(base[c.rowids], c.values, equal_nan=True)
        assert c.stats.pieces == len(c.cuts) + 1
        moved, cracks = c.stats.rows_moved, c.stats.cracks
        for pivot, inclusive in zip(pivots[:100], flavours):  # known cuts
            c.crack(pivot, inclusive=inclusive)
        assert (c.stats.rows_moved, c.stats.cracks) == (moved, cracks)


class _CountingList(list):
    """A cut list that counts every entry read through it."""

    reads = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        self.reads += len(item) if isinstance(index, slice) else 1
        return item

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


class TestCrackCost:
    """One crack reads O(log cuts) index entries, however the index is
    stored: a deterministic guard on the cost of a warm range query."""

    CUTS = 4096
    BOUND = 2 * int(math.log2(CUTS)) + 4

    @pytest.fixture
    def cracked(self):
        c = CrackerColumn(np.random.default_rng(1).permutation(4 * self.CUTS))
        for pivot in range(0, 4 * self.CUTS, 4):
            c.crack(pivot, inclusive=False)
        assert len(c.cuts) == self.CUTS
        c.cuts = _CountingList(c.cuts)
        return c

    @pytest.mark.parametrize("pivot", [-1, 0, 2, 4 * 2048 + 1, 4 * 4096 - 2, 10**6])
    @pytest.mark.parametrize("inclusive", [False, True])
    def test_one_crack_reads_at_most_2_log2_cuts_plus_4_entries(
        self, cracked, pivot, inclusive
    ):
        cracked.crack(pivot, inclusive=inclusive)
        assert cracked.cuts.reads <= self.BOUND
        cracked.check_invariants()

    def test_a_known_cut_costs_the_same(self, cracked):
        assert cracked.crack(4 * 1000, inclusive=False) == 4 * 1000
        assert cracked.cuts.reads <= self.BOUND
