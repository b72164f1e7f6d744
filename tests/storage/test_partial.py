"""Tests for partially-loaded columns and coverage certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.flatfile.schema import DataType
from repro.ranges import Condition, ValueInterval
from repro.storage.partial import CoverageCertificate, PartialColumn
from repro.strings import UNLOADED, StringColumn


def make_column(nrows=100) -> PartialColumn:
    return PartialColumn(name="a1", dtype=DataType.INT64, nrows=nrows)


class TestStore:
    def test_store_fragment(self):
        pc = make_column()
        n = pc.store(np.array([3, 4, 5]), np.array([30, 40, 50]))
        assert n == 3
        assert pc.loaded_count == 3
        assert not pc.is_fully_loaded
        assert pc.values_at(np.array([4])).tolist() == [40]

    def test_store_overlap_counts_new_only(self):
        pc = make_column()
        pc.store(np.array([1, 2]), np.array([10, 20]))
        n = pc.store(np.array([2, 3]), np.array([21, 30]))
        assert n == 1
        assert pc.loaded_count == 3
        assert pc.values_at(np.array([2])).tolist() == [21]  # latest wins

    def test_scattered_overlapping_stores_count_exactly(self):
        """Each store returns exactly the rows it newly loaded, however the
        row ids scatter and overlap earlier stores; the column reads fully
        loaded on its last row and not before."""
        nrows = 300
        pc = make_column(nrows)
        rng = np.random.default_rng(7)
        seen: set[int] = set()
        for _ in range(12):
            ids = np.sort(rng.choice(nrows, size=40, replace=False))
            n = pc.store(ids, ids * 10)
            assert n == len(set(ids.tolist()) - seen)
            seen |= set(ids.tolist())
            assert pc.loaded_count == len(seen)
            assert pc.loaded_count == int(pc.loaded_mask.sum())
        missing = np.array(sorted(set(range(nrows)) - seen), dtype=np.int64)
        assert len(missing) > 1
        assert pc.store(missing[:-1], missing[:-1] * 10) == len(missing) - 1
        assert not pc.is_fully_loaded
        assert pc.store(missing[-1:], missing[-1:] * 10) == 1
        assert pc.is_fully_loaded
        assert pc.store(np.arange(nrows), np.arange(nrows) * 10) == 0
        assert pc.values_at(np.arange(nrows)).tolist() == list(range(0, 10 * nrows, 10))

    @given(
        batches=st.lists(
            st.lists(st.integers(min_value=0, max_value=63), unique=True, max_size=20),
            max_size=10,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_loaded_count_matches_a_set_model(self, batches):
        pc = make_column(64)
        model: set[int] = set()
        for batch in batches:
            ids = np.array(batch, dtype=np.int64)
            assert pc.store(ids, ids + 1) == len(set(batch) - model)
            model |= set(batch)
            assert pc.loaded_count == len(model)
            assert pc.is_fully_loaded == (len(model) == 64)
            if pc.loaded_mask is not None:
                assert set(np.flatnonzero(pc.loaded_mask).tolist()) == model

    def test_store_empty(self):
        pc = make_column()
        assert pc.store(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == 0

    def test_store_length_mismatch(self):
        pc = make_column()
        with pytest.raises(ExecutionError):
            pc.store(np.array([1]), np.array([1, 2]))

    def test_store_full(self):
        pc = make_column(5)
        n = pc.store_full(np.arange(5))
        assert n == 5
        assert pc.is_fully_loaded
        assert pc.covers_query(Condition([("a1", ValueInterval(0, 3))]))

    def test_store_full_wrong_length(self):
        pc = make_column(5)
        with pytest.raises(ExecutionError):
            pc.store_full(np.arange(4))

    def test_values_at_unloaded_raises(self):
        pc = make_column()
        pc.store(np.array([1]), np.array([10]))
        with pytest.raises(ExecutionError, match="not loaded"):
            pc.values_at(np.array([2]))


class TestCertificates:
    def test_no_certificate_no_coverage(self):
        pc = make_column()
        pc.store(np.array([1]), np.array([10]))
        assert not pc.covers_query(Condition())

    def test_certificate_covers_repeat_query(self):
        cond = Condition([("a1", ValueInterval(10, 20))])
        pc = make_column()
        pc.add_certificate(CoverageCertificate(cond))
        assert pc.covers_query(cond)

    def test_certificate_covers_zoom_in(self):
        wide = Condition([("a1", ValueInterval(0, 100))])
        narrow = Condition([("a1", ValueInterval(40, 60))])
        pc = make_column()
        pc.add_certificate(CoverageCertificate(wide))
        assert pc.covers_query(narrow)
        # zoom OUT is not covered
        pc2 = make_column()
        pc2.add_certificate(CoverageCertificate(narrow))
        assert not pc2.covers_query(wide)

    def test_full_certificate_subsumes_all(self):
        pc = make_column()
        pc.add_certificate(CoverageCertificate(Condition([("a1", ValueInterval(0, 1))])))
        pc.add_certificate(CoverageCertificate(Condition()))
        assert len(pc.certificates) == 1
        assert pc.certificates[0].is_full
        # later partial certs are ignored
        pc.add_certificate(CoverageCertificate(Condition([("a1", ValueInterval(5, 9))])))
        assert len(pc.certificates) == 1

    def test_duplicate_certificates_deduped(self):
        cond = Condition([("a1", ValueInterval(0, 1))])
        pc = make_column()
        pc.add_certificate(CoverageCertificate(cond))
        pc.add_certificate(CoverageCertificate(cond))
        assert len(pc.certificates) == 1


class TestQualifyingMask:
    def test_mask_restricted_to_loaded(self):
        pc = make_column(10)
        pc.store(np.array([2, 3, 4]), np.array([20, 30, 40]))
        mask = pc.qualifying_mask(ValueInterval(15, 35))
        assert mask.tolist() == [False] * 2 + [True, True] + [False] * 6

    def test_mask_no_backing(self):
        pc = make_column(4)
        assert pc.qualifying_mask(ValueInterval.unbounded()).tolist() == [False] * 4

    def test_garbage_positions_never_qualify(self):
        pc = make_column(5)
        pc.store(np.array([0]), np.array([0]))
        # Backing zeros at unloaded positions would match (-10, 10) if the
        # mask forgot the loaded filter.
        mask = pc.qualifying_mask(ValueInterval(-10, 10))
        assert mask.tolist() == [True, False, False, False, False]


    def test_string_mask_over_loaded_rows_only(self):
        pc = PartialColumn(name="a2", dtype=DataType.STRING, nrows=6)
        pc.store(np.array([1, 2, 4]), StringColumn.encode(["kiwi", "apple", "lime"]))
        # unloaded slots hold a code that names no value: never compared
        assert pc.values.codes[0] == UNLOADED
        mask = pc.qualifying_mask(ValueInterval("k", "m"))
        assert mask.tolist() == [False, True, False, False, True, False]


class TestAccounting:
    def test_logical_bytes_proportional_to_loaded(self):
        pc = make_column(1000)
        assert pc.logical_nbytes == 0
        pc.store(np.arange(10), np.arange(10))
        small = pc.logical_nbytes
        pc.store(np.arange(500), np.arange(500))
        assert pc.logical_nbytes > small

    def test_drop_resets(self):
        pc = make_column(10)
        pc.store_full(np.arange(10))
        pc.drop()
        assert pc.loaded_count == 0
        assert pc.values is None
        assert not pc.certificates
        assert not pc.covers_query(Condition())


class TestLoadedCount:
    """``loaded_count`` is kept beside ``loaded_mask`` by every mutator;
    each must leave the two in agreement, or ``is_fully_loaded`` lies."""

    @staticmethod
    def _agrees(pc: PartialColumn) -> None:
        marked = 0 if pc.loaded_mask is None else int(pc.loaded_mask.sum())
        assert pc.loaded_count == marked

    def test_store_full_after_fragments_counts_the_rest(self):
        pc = make_column(10)
        pc.store(np.array([1, 5]), np.array([10, 50]))
        assert pc.store_full(np.arange(10)) == 8
        assert pc.is_fully_loaded
        self._agrees(pc)

    def test_restore_full_then_store_counts_nothing_new(self):
        pc = make_column(4)
        frozen = np.arange(4, dtype=np.int64)
        frozen.flags.writeable = False  # as a read-only store mapping
        pc.restore_full(frozen)
        assert pc.is_fully_loaded
        assert pc.store(np.array([0, 3]), np.array([7, 8])) == 0
        assert pc.is_fully_loaded
        assert pc.values_at(np.array([0, 3])).tolist() == [7, 8]
        self._agrees(pc)

    def test_grow_full_column_stays_full(self):
        pc = make_column(3)
        pc.store_full(np.arange(3))
        assert pc.grow(5, np.array([3, 4]))
        assert pc.loaded_count == 5
        assert pc.is_fully_loaded
        self._agrees(pc)

    def test_grow_partial_column_drops_to_empty(self):
        pc = make_column(3)
        pc.store(np.array([0]), np.array([1]))
        assert not pc.grow(5, np.array([3, 4]))
        assert pc.loaded_count == 0
        assert pc.nrows == 5
        assert not pc.is_fully_loaded

    def test_widen_numeric_keeps_count(self):
        pc = make_column(6)
        pc.store(np.array([2, 4]), np.array([20, 40]))
        pc.widen(DataType.FLOAT64)
        assert pc.loaded_count == 2
        assert pc.values_at(np.array([2, 4])).tolist() == [20.0, 40.0]
        self._agrees(pc)

    def test_widen_to_string_drops_count(self):
        pc = make_column(6)
        pc.store_full(np.arange(6))
        pc.widen(DataType.STRING)
        assert pc.loaded_count == 0
        assert not pc.is_fully_loaded

    def test_zero_row_column_reads_fully_loaded(self):
        pc = make_column(0)
        assert pc.is_fully_loaded  # no rows to load
        assert pc.store_full(np.arange(0)) == 0
        assert pc.is_fully_loaded

    def test_logical_bytes_follow_the_count(self):
        pc = make_column(800)
        pc.store(np.arange(0, 800, 2), np.arange(400))
        assert pc.logical_nbytes == 400 * 8 + 800 // 8
        pc.store(np.arange(0, 800, 4), np.arange(200))  # all seen before
        assert pc.logical_nbytes == 400 * 8 + 800 // 8
