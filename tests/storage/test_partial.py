"""Tests for partially-loaded columns and coverage certificates."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.flatfile.schema import DataType
from repro.ranges import Condition, ValueInterval
from repro.storage.partial import CoverageCertificate, PartialColumn


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
