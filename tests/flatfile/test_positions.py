"""Tests for the positional map data structure."""

import numpy as np
import pytest

from repro.flatfile.positions import PositionalMap
from scalar_oracle import anchor_for


class TestRecording:
    def test_nrows_first_writer_wins(self):
        m = PositionalMap()
        m.record_nrows(3)
        m.record_nrows(7)
        assert m.nrows == 3

    def test_field_offsets_idempotent(self):
        m = PositionalMap()
        m.record_field_offsets(2, np.array([3, 13, 23]), np.array([5, 15, 25]))
        m.record_field_offsets(2, np.array([9, 9, 9]), np.array([9, 9, 9]))
        assert list(m.field_offsets[2]) == [3, 13, 23]
        assert list(m.field_ends[2]) == [5, 15, 25]

    def test_field_offsets_set_nrows(self):
        m = PositionalMap()
        m.record_field_offsets(0, np.array([0, 10]), np.array([3, 13]))
        assert m.nrows == 2

    def test_length_mismatch_rejected(self):
        m = PositionalMap()
        m.record_nrows(2)
        with pytest.raises(ValueError):
            m.record_field_offsets(1, np.array([1, 2, 3]), np.array([2, 3, 4]))


class TestAnchors:
    """The anchor rule of the scalar oracle (and of the kernel's visits)."""

    def test_no_knowledge(self):
        assert anchor_for(PositionalMap(), 3) is None

    def test_row_count_alone_is_no_anchor(self):
        m = PositionalMap()
        m.record_nrows(2)
        assert anchor_for(m, 5) is None

    def test_closest_predecessor_wins(self):
        m = PositionalMap()
        m.record_field_offsets(1, np.array([2]), np.array([4]))
        m.record_field_offsets(3, np.array([6]), np.array([8]))
        col, offsets = anchor_for(m, 4)
        assert col == 3
        assert list(offsets) == [6]

    def test_later_columns_ignored(self):
        m = PositionalMap()
        m.record_field_offsets(5, np.array([9]), np.array([11]))
        assert anchor_for(m, 2) is None

    def test_exact_column_anchor(self):
        m = PositionalMap()
        m.record_field_offsets(2, np.array([4]), np.array([6]))
        col, _ = anchor_for(m, 2)
        assert col == 2


class TestSlices:
    def test_slices_for_known_column(self):
        m = PositionalMap()
        assert not m.knows_column(1)
        m.record_field_offsets(1, np.array([2, 12]), np.array([4, 14]))
        assert m.knows_column(1)
        starts, ends = m.slices_for(1)
        assert list(starts) == [2, 12]
        assert list(ends) == [4, 14]

    def test_end_length_mismatch_rejected(self):
        m = PositionalMap()
        m.record_nrows(2)
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
        m.record_nrows(1)
        m.record_field_offsets(0, np.array([0]), np.array([1]))
        m.record_text_geometry(nbytes=2, nchars=2)
        m.clear()
        assert m.nrows is None
        assert not m.field_offsets
        assert not m.field_ends
        assert m.text_geometry is None
        assert not m.sliceable

    def test_known_columns_sorted(self):
        m = PositionalMap()
        m.record_field_offsets(3, np.array([1]), np.array([2]))
        m.record_field_offsets(1, np.array([1]), np.array([2]))
        assert m.known_columns() == [1, 3]


def _map(nrows, spans=None, geometry=None):
    """A map over ``nrows`` rows; ``spans`` is ``{col: (starts, ends)}``."""
    m = PositionalMap()
    m.record_nrows(nrows)
    for col, (starts, ends) in (spans or {}).items():
        m.record_field_offsets(col, np.array(starts), np.array(ends))
    if geometry is not None:
        m.record_text_geometry(*geometry)
    return m


class TestMerging:
    def test_partitions_sum_row_counts_and_shift_spans(self):
        # "1,2\n3,4\n" | "5,6\n": the second partition starts at char 8.
        parts = [
            _map(2, {0: ([0, 4], [1, 5]), 1: ([2, 6], [3, 7])}, (8, 8)),
            _map(1, {0: ([0], [1])}, (4, 4)),
        ]
        m = PositionalMap()
        m.absorb_partitions(parts, [0, 8])
        assert m.nrows == 3
        assert m.known_columns() == [0]  # column 1 unknown in one part
        starts, ends = m.slices_for(0)
        assert starts.tolist() == [0, 4, 8]
        assert ends.tolist() == [1, 5, 9]
        assert m.text_geometry == (12, 12)

    def test_partition_without_row_count_leaves_it_unknown(self):
        m = PositionalMap()
        m.absorb_partitions([_map(2), PositionalMap()], [0, 8])
        assert m.nrows is None

    def test_extend_tail_grows_rows_and_known_spans(self):
        m = _map(2, {0: ([0, 4], [1, 5]), 1: ([2, 6], [3, 7])}, (8, 8))
        tail = _map(1, {0: ([0], [1])}, (4, 4))
        m.extend_tail(tail, 1)
        assert m.nrows == 3
        assert m.known_columns() == [0]  # the tail did not relearn column 1
        starts, ends = m.slices_for(0)
        assert starts.tolist() == [0, 4, 8]
        assert ends.tolist() == [1, 5, 9]
        assert m.text_geometry == (12, 12)

    def test_extend_tail_without_geometry_clears(self):
        m = _map(2, {0: ([0, 4], [1, 5])})
        m.extend_tail(_map(1, {0: ([0], [1])}, (4, 4)), 1)
        assert m.nrows is None
        assert not m.field_offsets

    def test_extend_tail_short_column_is_dropped(self):
        m = _map(2, {0: ([0, 4], [1, 5])}, (8, 8))
        tail = _map(2, {0: ([0, 4], [1, 5])}, (8, 8))
        m.extend_tail(tail, 3)  # the tail pass framed more rows than it spanned
        assert m.nrows == 5
        assert not m.knows_column(0)

    def test_extend_tail_on_an_empty_map_learns_nothing(self):
        m = PositionalMap()
        m.extend_tail(_map(1, {0: ([0], [1])}, (2, 2)), 1)
        assert m.nrows is None
        assert not m.field_offsets
        assert m.text_geometry is None

    def test_partitions_and_bases_must_pair(self):
        with pytest.raises(ValueError):
            PositionalMap().absorb_partitions([_map(1)], [0, 4])
