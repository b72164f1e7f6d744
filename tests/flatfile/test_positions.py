"""Tests for the positional map data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flatfile.positions import PositionalMap
from scalar_oracle import anchor_for


def _frame(spans, sep=1):
    """The frame of columns ``0..K`` from their ``[(starts, ends), ...]``:
    every start, then the last end plus ``sep``."""
    bounds = [np.asarray(starts) for starts, _ in spans]
    bounds.append(np.asarray(spans[-1][1]) + sep)
    return np.column_stack(bounds).astype(np.int64)


def _record(m, spans, sep=1):
    m.record_frame(_frame(spans, sep), sep=sep)


class TestRecording:
    def test_nrows_first_writer_wins(self):
        m = PositionalMap()
        m.record_nrows(3)
        m.record_nrows(7)
        assert m.nrows == 3

    def test_frame_idempotent(self):
        m = PositionalMap()
        _record(m, [([3, 13, 23], [5, 15, 25])])
        _record(m, [([9, 9, 9], [9, 9, 9])])
        starts, ends = m.slices_for(0)
        assert list(starts) == [3, 13, 23]
        assert list(ends) == [5, 15, 25]

    def test_frame_sets_nrows(self):
        m = PositionalMap()
        _record(m, [([0, 10], [3, 13])])
        assert m.nrows == 2

    def test_length_mismatch_rejected(self):
        m = PositionalMap()
        m.record_nrows(2)
        with pytest.raises(ValueError):
            _record(m, [([1, 2, 3], [2, 3, 4])])

    def test_frame_is_two_dimensional(self):
        with pytest.raises(ValueError):
            PositionalMap().record_frame(np.array([0, 2]), sep=1)

    def test_only_a_wider_frame_is_kept(self):
        m = PositionalMap()
        m.record_frame(np.zeros((1, 1), dtype=np.int64), sep=1)  # no field
        assert m.known_columns() == []
        _record(m, [([0], [1]), ([2], [3])])
        _record(m, [([0], [1])])  # narrower: the frame stays
        assert m.known_columns() == [0, 1]
        _record(m, [([0], [1]), ([2], [3]), ([4], [5])])
        assert m.known_columns() == [0, 1, 2]

    def test_frames_that_disagree_with_the_last_bound_are_dropped(self):
        m = PositionalMap()
        _record(m, [([0, 10], [3, 13])])
        _record(m, [([0, 10], [4, 14]), ([5, 15], [6, 16])])  # 1 starts at 5, not 4
        assert m.known_columns() == [0]
        _record(m, [([0, 10], [4, 14]), ([4, 14], [6, 16])], sep=0)  # other width
        assert m.known_columns() == [0]
        _record(m, [([0, 10], [3, 13]), ([4, 14], [6, 16])])
        assert m.known_columns() == [0, 1]

    def test_a_wider_frame_is_taken_whole(self):
        m = PositionalMap()
        _record(m, [([0, 10], [3, 13])])
        wider = _frame([([0, 10], [3, 13]), ([4, 14], [6, 16])])
        m.record_frame(wider, sep=1)
        assert m.slices_for(1)[0].tolist() == [4, 14]
        assert m.nbytes == wider.nbytes


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
        _record(m, [([2 * col], [2 * col + 1]) for col in range(4)])
        col, offsets = anchor_for(m, 4)
        assert col == 3
        assert list(offsets) == [6]

    def test_columns_past_the_frame_are_unknown(self):
        m = PositionalMap()
        _record(m, [([0], [1]), ([2], [3])])
        assert not m.knows_column(2) and not m.knows_column(-1)
        assert anchor_for(m, 5)[0] == 1

    def test_exact_column_anchor(self):
        m = PositionalMap()
        _record(m, [([2 * col], [2 * col + 1]) for col in range(3)])
        col, _ = anchor_for(m, 2)
        assert col == 2


class TestSlices:
    def test_slices_for_known_column(self):
        m = PositionalMap()
        assert not m.knows_column(1)
        _record(m, [([0, 10], [1, 11]), ([2, 12], [4, 14])])
        assert m.knows_column(1)
        starts, ends = m.slices_for(1)
        assert list(starts) == [2, 12]
        assert list(ends) == [4, 14]

    def test_unknown_column_raises(self):
        m = PositionalMap()
        _record(m, [([0], [1])])
        with pytest.raises(KeyError):
            m.slices_for(1)

    def test_rows_select_before_the_end_is_derived(self):
        m = PositionalMap()
        _record(m, [([0, 10, 20, 30], [3, 13, 23, 33])])
        rows = np.array([3, 1])
        starts, ends = m.slices_for(0, rows)
        assert list(starts) == [30, 10]
        assert list(ends) == [33, 13]
        assert list(m.slices_for(0)[1]) == [3, 13, 23, 33]  # map untouched

    def test_fixed_width_spans_abut(self):
        m = PositionalMap()
        _record(m, [([0, 6], [2, 8]), ([2, 8], [5, 11])], sep=0)
        assert m.sep == 0
        assert list(m.slices_for(0)[1]) == [2, 8]
        assert list(m.slices_for(1)[1]) == [5, 11]

    def test_run_slices_cut_adjacent_columns_from_one_gather(self):
        m = PositionalMap()
        _record(m, [([0, 10], [1, 11]), ([2, 12], [4, 14]), ([5, 15], [6, 16])])
        spans = m.run_slices([1, 2], np.array([1]))
        assert {c: [a.tolist() for a in se] for c, se in spans.items()} == {
            1: [[12], [14]],
            2: [[15], [16]],
        }
        with pytest.raises(KeyError):
            m.run_slices([0, 2])  # not adjacent
        with pytest.raises(KeyError):
            m.run_slices([2, 3])  # column 3 unknown


class TestLifecycle:
    def test_clear(self):
        m = PositionalMap()
        m.record_nrows(1)
        _record(m, [([0], [1])])
        m.clear()
        assert m.nrows is None
        assert not m.known_columns()
        assert m.sep is None
        assert m.frame is None

    def test_truncate_copies_the_kept_columns(self):
        m = _map(2, {0: ([0, 4], [1, 5]), 1: ([2, 6], [3, 7])})
        frame = m.frame
        m.truncate(1)
        assert m.known_columns() == [0]
        assert not np.shares_memory(m.frame, frame)
        assert m.nbytes == 2 * 2 * 8
        m.truncate(0)
        assert m.known_columns() == [] and m.nbytes == 0

    def test_extends_notices_a_clear_and_a_reframe(self):
        m = _map(2, {0: ([0, 4], [1, 5])})
        snapshot = m.copy()
        _record(m, [([0, 4], [1, 5]), ([2, 6], [3, 7])])  # widened
        assert m.extends(snapshot)
        m.clear()
        _record(m, [([0, 4], [2, 5]), ([3, 6], [4, 7])])  # framed afresh
        assert not m.extends(snapshot)

    def test_export_round_trip(self):
        m = _map(2, {0: ([0, 4], [1, 5]), 1: ([2, 6], [3, 7])})
        meta, frame = m.export()
        assert frame.shape == (2, 3)  # one boundary per known column, plus one
        back = PositionalMap.from_export(meta, frame)
        assert back.known_columns() == [0, 1]
        assert back.nrows == 2 and back.sep == 1
        for col in (0, 1):
            assert [a.tolist() for a in back.slices_for(col)] == [
                a.tolist() for a in m.slices_for(col)
            ]

    def test_export_inconsistency_rejected(self):
        meta, frame = _map(2, {0: ([0, 4], [1, 5])}).export()
        with pytest.raises(ValueError):
            PositionalMap.from_export(meta, frame[:, :1])
        with pytest.raises(ValueError):
            PositionalMap.from_export(meta, frame[:1])
        with pytest.raises(ValueError):
            PositionalMap.from_export(meta, None)


def _map(nrows, spans=None):
    """A map over ``nrows`` rows; ``spans`` is ``{col: (starts, ends)}``."""
    m = PositionalMap()
    m.record_nrows(nrows)
    if spans:
        _record(m, [spans[col] for col in sorted(spans)])
    return m


class TestMerging:
    def test_extend_tail_grows_rows_and_known_spans(self):
        m = _map(2, {0: ([0, 4], [1, 5]), 1: ([2, 6], [3, 7])})
        tail = _map(1, {0: ([0], [1])})
        m.extend_tail(tail, 1, shift=8)
        assert m.nrows == 3
        assert m.known_columns() == [0]  # the tail did not relearn column 1
        starts, ends = m.slices_for(0)
        assert starts.tolist() == [0, 4, 8]
        assert ends.tolist() == [1, 5, 9]

    def test_extend_tail_shifts_by_the_old_byte_size(self):
        # "é,1\n" is 5 bytes and 4 characters: the tail starts at byte 5.
        m = _map(1, {0: ([0], [2]), 1: ([3], [4])})
        m.extend_tail(_map(1, {0: ([0], [1]), 1: ([2], [3])}), 1, shift=5)
        assert m.slices_for(0)[0].tolist() == [0, 5]
        assert m.slices_for(1)[1].tolist() == [4, 8]

    def test_extend_tail_short_column_is_dropped(self):
        m = _map(2, {0: ([0, 4], [1, 5])})
        tail = _map(2, {0: ([0, 4], [1, 5])})
        m.extend_tail(tail, 3, shift=8)  # the tail pass framed more rows than it spanned
        assert m.nrows == 5
        assert not m.knows_column(0)

    def test_extend_tail_on_an_empty_map_learns_nothing(self):
        m = PositionalMap()
        m.extend_tail(_map(1, {0: ([0], [1])}), 1, shift=2)
        assert m.nrows is None
        assert not m.known_columns()


# ---------------------------------------------------------------------------
# model test: the boundary format answers like a dict of (starts, ends)
# ---------------------------------------------------------------------------


def _layout(widths: np.ndarray, sep: int):
    """True per-column ``(starts, ends)`` of rows with these field widths
    (fields ``sep`` apart, one newline per row), and the text's size."""
    nrows, ncols = widths.shape
    row_len = widths.sum(axis=1) + sep * (ncols - 1) + 1
    pos = (np.cumsum(row_len) - row_len).astype(np.int64)
    spans = []
    for c in range(ncols):
        spans.append((pos, pos + widths[:, c]))
        pos = spans[-1][1] + sep
    return spans, int(row_len.sum())


def _learned(widths: np.ndarray, sep: int, known: int) -> PositionalMap:
    """A map that learned the first ``known`` columns of ``widths``."""
    spans, _ = _layout(widths, sep)
    m = PositionalMap()
    m.record_nrows(len(widths))
    if known:
        m.record_frame(_frame(spans[:known], sep), sep=sep)
    return m


_WIDTHS = st.integers(0, 6)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), ncols=st.integers(1, 4), sep=st.sampled_from([0, 1]))
def test_boundary_map_matches_a_dict_of_spans(data, ncols, sep):
    """Any sequence of record_frame and extend_tail leaves ``slices_for``
    equal to a plain ``{col: (starts, ends)}`` model."""

    def draw_widths(min_rows):
        nrows = data.draw(st.integers(min_rows, 6))
        cells = data.draw(st.lists(_WIDTHS, min_size=nrows * ncols, max_size=nrows * ncols))
        return np.array(cells, dtype=np.int64).reshape(nrows, ncols)

    widths = draw_widths(1)
    m = PositionalMap()
    m.record_nrows(len(widths))
    model: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    for _ in range(data.draw(st.integers(1, 8))):
        spans, size = _layout(widths, sep)
        op = data.draw(st.sampled_from(["record", "append"]))
        if op == "record":
            width = data.draw(st.integers(1, ncols))
            m.record_frame(_frame(spans[:width], sep), sep=sep)
            if width > len(model):
                model = {c: spans[c] for c in range(width)}
        else:
            tail = draw_widths(0)
            known = data.draw(st.integers(0, ncols))
            m.extend_tail(_learned(tail, sep, known), len(tail), size)
            widths = np.vstack([widths, tail])
            spans, _ = _layout(widths, sep)
            model = {c: spans[c] for c in range(min(len(model), known))}

        assert m.nrows == len(widths)
        assert m.known_columns() == sorted(model)
        rows = np.array(
            data.draw(st.lists(st.integers(0, len(widths) - 1), max_size=4)),
            dtype=np.int64,
        )
        for col, (starts, ends) in model.items():
            got_starts, got_ends = m.slices_for(col)
            assert got_starts.tolist() == starts.tolist()
            assert got_ends.tolist() == ends.tolist()
            sub_starts, sub_ends = m.slices_for(col, rows)
            assert sub_starts.tolist() == starts[rows].tolist()
            assert sub_ends.tolist() == ends[rows].tolist()
        back = PositionalMap.from_export(*m.export())
        assert back.known_columns() == m.known_columns()
