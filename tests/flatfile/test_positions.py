"""Tests for the positional map data structure."""

import numpy as np
import pytest

from repro.flatfile.positions import PositionalMap
from scalar_oracle import anchor_for


class TestRecording:
    def test_row_offsets_first_writer_wins(self):
        m = PositionalMap()
        m.record_row_offsets(np.array([0, 10, 20]))
        m.record_row_offsets(np.array([1, 2, 3]))
        assert list(m.row_offsets) == [0, 10, 20]
        assert m.nrows == 3

    def test_field_offsets_idempotent(self):
        m = PositionalMap()
        m.record_field_offsets(2, np.array([3, 13, 23]))
        m.record_field_offsets(2, np.array([9, 9, 9]))
        assert list(m.field_offsets[2]) == [3, 13, 23]

    def test_length_mismatch_rejected(self):
        m = PositionalMap()
        m.record_row_offsets(np.array([0, 10]))
        with pytest.raises(ValueError):
            m.record_field_offsets(1, np.array([1, 2, 3]))


class TestAnchors:
    """The anchor rule of the scalar oracle (and of the kernel's visits)."""

    def test_no_knowledge(self):
        assert anchor_for(PositionalMap(), 3) is None

    def test_row_offsets_anchor_column_zero(self):
        m = PositionalMap()
        m.record_row_offsets(np.array([0, 10]))
        col, offsets = anchor_for(m, 5)
        assert col == 0
        assert list(offsets) == [0, 10]

    def test_closest_predecessor_wins(self):
        m = PositionalMap()
        m.record_field_offsets(1, np.array([2]))
        m.record_field_offsets(3, np.array([6]))
        col, offsets = anchor_for(m, 4)
        assert col == 3
        assert list(offsets) == [6]

    def test_later_columns_ignored(self):
        m = PositionalMap()
        m.record_field_offsets(5, np.array([9]))
        assert anchor_for(m, 2) is None

    def test_exact_column_anchor(self):
        m = PositionalMap()
        m.record_field_offsets(2, np.array([4]))
        col, _ = anchor_for(m, 2)
        assert col == 2


class TestSlices:
    def test_can_slice_needs_starts_and_ends(self):
        m = PositionalMap()
        m.record_field_offsets(1, np.array([2, 12]))
        assert m.knows_column(1)
        assert not m.can_slice(1)
        m2 = PositionalMap()
        m2.record_field_offsets(1, np.array([2, 12]), np.array([4, 14]))
        assert m2.can_slice(1)
        starts, ends = m2.slices_for(1)
        assert list(starts) == [2, 12]
        assert list(ends) == [4, 14]

    def test_end_length_mismatch_rejected(self):
        m = PositionalMap()
        m.record_row_offsets(np.array([0, 10]))
        with pytest.raises(ValueError):
            m.record_field_offsets(0, np.array([0, 10]), np.array([3]))

    def test_geometry_first_writer_wins(self):
        m = PositionalMap()
        assert not m.sliceable
        m.record_text_geometry(nbytes=100, nchars=100)
        m.record_text_geometry(nbytes=5, nchars=9)
        assert m.text_geometry == (100, 100)
        assert m.sliceable

    def test_multibyte_text_not_sliceable(self):
        m = PositionalMap()
        m.record_text_geometry(nbytes=102, nchars=100)
        assert not m.sliceable


class TestLifecycle:
    def test_clear(self):
        m = PositionalMap()
        m.record_row_offsets(np.array([0]))
        m.record_field_offsets(0, np.array([0]), np.array([1]))
        m.record_text_geometry(nbytes=2, nchars=2)
        m.clear()
        assert m.nrows is None
        assert m.row_offsets is None
        assert not m.field_offsets
        assert not m.field_ends
        assert m.text_geometry is None
        assert not m.sliceable

    def test_known_columns_sorted(self):
        m = PositionalMap()
        m.record_field_offsets(3, np.array([1]))
        m.record_field_offsets(1, np.array([1]))
        assert m.known_columns() == [1, 3]
