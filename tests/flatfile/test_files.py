"""Tests for flat-file handles, fingerprints and counted reads."""

import io
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlatFileError
from repro.faults import FaultPlan, FaultSpec
from repro.flatfile.files import FileFingerprint, FlatFile, coalesce_ranges


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    return path


class TestBasics:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FlatFileError, match="does not exist"):
            FlatFile(tmp_path / "nope.csv")

    def test_bad_delimiter_rejected(self, csv_file):
        with pytest.raises(FlatFileError, match="delimiter"):
            FlatFile(csv_file, delimiter=",,")

    def test_size(self, csv_file):
        assert FlatFile(csv_file).size_bytes() == len("1,2\n3,4\n5,6\n")

    def test_read_all(self, csv_file):
        f = FlatFile(csv_file)
        assert f.read_all() == "1,2\n3,4\n5,6\n"

    def test_read_range(self, csv_file):
        f = FlatFile(csv_file)
        assert f.read_range(4, 7) == "3,4"

    def test_bad_range_rejected(self, csv_file):
        f = FlatFile(csv_file)
        with pytest.raises(FlatFileError):
            f.read_range(5, 2)
        with pytest.raises(FlatFileError):
            f.read_range(-1, 2)


class TestAccounting:
    def test_bytes_counted(self, csv_file):
        f = FlatFile(csv_file)
        f.read_all()
        f.read_all()
        assert f.stats.bytes_read == 2 * f.size_bytes()
        assert f.stats.read_calls == 2
        assert f.stats.full_scans == 2

    def test_range_reads_not_full_scans(self, csv_file):
        f = FlatFile(csv_file)
        f.read_range(0, 3)
        assert f.stats.full_scans == 0
        assert f.stats.bytes_read == 3

    def test_sample_rows_bounded(self, csv_file):
        f = FlatFile(csv_file)
        rows = f.sample_rows(limit=2)
        assert rows == [["1", "2"], ["3", "4"]]
        assert f.stats.bytes_read <= f.size_bytes()


class TestCoalesce:
    def _merge(self, ranges, max_gap=0):
        starts = np.array([s for s, _ in ranges], dtype=np.int64)
        ends = np.array([e for _, e in ranges], dtype=np.int64)
        ws, we = coalesce_ranges(starts, ends, max_gap)
        return list(zip(ws.tolist(), we.tolist()))

    def test_empty(self):
        assert self._merge([]) == []

    def test_disjoint_stay_separate(self):
        assert self._merge([(0, 3), (10, 12)]) == [(0, 3), (10, 12)]

    def test_touching_merge(self):
        assert self._merge([(0, 3), (3, 6)]) == [(0, 6)]

    def test_overlapping_merge(self):
        assert self._merge([(0, 5), (3, 8)]) == [(0, 8)]

    def test_gap_tolerance(self):
        assert self._merge([(0, 3), (5, 8)], max_gap=2) == [(0, 8)]
        assert self._merge([(0, 3), (6, 8)], max_gap=2) == [(0, 3), (6, 8)]

    def test_unsorted_input(self):
        assert self._merge([(10, 12), (0, 3), (2, 5)]) == [(0, 5), (10, 12)]

    @settings(max_examples=200, deadline=None)
    @given(
        ranges=st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 40)), max_size=30
        ),
        max_gap=st.sampled_from([0, 1, 4, 50]),
        data=st.data(),
    )
    def test_sorted_and_shuffled_inputs_coalesce_alike(self, ranges, max_gap, data):
        """Sorted input skips the sort; it must not change the windows,
        overlapping and contained ranges included."""
        ranges = sorted((s, s + n) for s, n in ranges)
        shuffled = data.draw(st.permutations(ranges))
        assert self._merge(ranges, max_gap) == self._merge(shuffled, max_gap)

    def test_contained_range_absorbed(self):
        assert self._merge([(0, 20), (5, 8), (25, 30)]) == [(0, 20), (25, 30)]

    def test_malformed_rejected(self):
        with pytest.raises(FlatFileError):
            self._merge([(5, 2)])
        with pytest.raises(FlatFileError):
            self._merge([(-1, 2)])
        with pytest.raises(FlatFileError):
            self._merge([(0, 2)], max_gap=-1)


class TestReadWindows:
    def test_reads_only_requested_bytes(self, csv_file):
        f = FlatFile(csv_file)  # "1,2\n3,4\n5,6\n"
        win = f.read_windows(np.array([0, 8]), np.array([3, 11]))
        # Only the windows are accounted; the one block read for both
        # holds the bytes between them too.
        assert win.window_bytes == 6
        assert win.buffer == b"1,2\n3,4\n5,6"
        assert f.stats.bytes_read == 6
        assert f.stats.read_calls == 2
        assert f.stats.full_scans == 0

    def test_translate_maps_file_offsets_into_buffer(self, csv_file):
        f = FlatFile(csv_file)
        win = f.read_windows(np.array([0, 8]), np.array([3, 11]))
        local = win.translate(np.array([8, 0, 10]))
        assert [win.buffer[i : i + 1] for i in local.tolist()] == [b"5", b"1", b"6"]

    def test_translate_outside_windows_rejected(self, csv_file):
        f = FlatFile(csv_file)
        win = f.read_windows(np.array([0]), np.array([3]))
        with pytest.raises(FlatFileError):
            win.translate(np.array([7]))

    def test_gap_merges_into_single_read(self, csv_file):
        f = FlatFile(csv_file)
        win = f.read_windows(np.array([0, 5]), np.array([3, 7]), max_gap=4)
        assert f.stats.read_calls == 1
        assert win.buffer == b"1,2\n3,4"

    def test_empty_request(self, csv_file):
        f = FlatFile(csv_file)
        win = f.read_windows(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert win.buffer == b""
        assert f.stats.bytes_read == 0


GAP = io.DEFAULT_BUFFER_SIZE
CAP = FlatFile._BLOCK_MAX


@pytest.fixture(scope="module")
def big_file(tmp_path_factory):
    """Two and a half block caps of seeded bytes."""
    path = tmp_path_factory.mktemp("blocks") / "big.bin"
    rng = np.random.default_rng(17)
    path.write_bytes(rng.integers(0, 256, 5 * CAP // 2, dtype=np.uint8).tobytes())
    return path


def per_window_oracle(path, starts, ends, max_gap):
    """The reads a window list costs one ``seek``+``read`` at a time."""
    ws, we = coalesce_ranges(starts, ends, max_gap)
    with open(path, "rb") as f:
        chunks = []
        for s, e in zip(ws.tolist(), we.tolist()):
            f.seek(s)
            chunks.append(f.read(e - s))
    return b"".join(chunks), len(ws)


def file_bytes(path, start, end):
    with open(path, "rb") as f:
        f.seek(start)
        return f.read(end - start)


@st.composite
def window_requests(draw):
    """Runs of ranges near the block gap and the block cap, shuffled,
    with overlapping and empty ranges mixed in."""
    starts, ends = [], []
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.sampled_from([0, GAP, CAP, 2 * CAP])) + draw(
            st.integers(-GAP - 8, GAP + 8)
        )
        for _ in range(draw(st.integers(1, 12))):
            pos += draw(st.sampled_from([0, 1, 5, GAP - 1, GAP, GAP + 1, 3 * GAP]))
            length = draw(st.integers(0, 40))
            start = min(max(pos, 0), 5 * CAP // 2 - length)
            starts.append(start)
            ends.append(start + length)
            pos = start + length
    order = draw(st.permutations(range(len(starts))))
    starts = [starts[i] for i in order]
    ends = [ends[i] for i in order]
    if starts and draw(st.booleans()):
        starts.append(starts[0])  # an overlapping duplicate
        ends.append(ends[0] + 3)
    return np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)


class TestBlockReads:
    @settings(max_examples=80, deadline=None)
    @given(
        request=window_requests(),
        max_gap=st.sampled_from([0, 4]),
        workers=st.sampled_from([1, 2]),
    )
    def test_buffer_matches_per_window_reads(self, big_file, request, max_gap, workers):
        starts, ends = request
        f = FlatFile(big_file)
        win = f.read_windows(starts, ends, max_gap=max_gap, workers=workers)
        want, nwindows = per_window_oracle(big_file, starts, ends, max_gap)
        assert win.window_bytes == f.stats.bytes_read == len(want)
        assert f.stats.read_calls == nwindows
        # Every window, cut through translate, is its per-window read.
        ws, we = coalesce_ranges(starts, ends, max_gap)
        for start, end, at in zip(ws.tolist(), we.tolist(), win.translate(ws).tolist()):
            assert win.buffer[at : at + end - start] == f.read_range_bytes(start, end)
        # The buffer is the blocks, each one contiguous run of the file.
        blocks = zip(win.starts.tolist(), win.ends.tolist(), win.offsets.tolist())
        for start, end, at in blocks:
            assert win.buffer[at : at + end - start] == file_bytes(big_file, start, end)
        assert win.buffer_bytes == int((win.ends - win.starts).sum())
        local = win.translate(starts)
        for start, end, at in zip(starts.tolist(), ends.tolist(), local.tolist()):
            assert win.buffer[at : at + end - start] == file_bytes(big_file, start, end)

    def test_threaded_blocks_match_serial(self, big_file):
        starts = np.arange(40, dtype=np.int64) * (3 * GAP) + 7  # 40 blocks
        serial = FlatFile(big_file).read_windows(starts, starts + 9)
        threaded = FlatFile(big_file).read_windows(starts, starts + 9, workers=4)
        want = per_window_oracle(big_file, starts, starts + 9, 0)[0]
        assert threaded.buffer == serial.buffer == want

    def test_short_read_is_retried(self, big_file):
        plan = FaultPlan({"flatfile.short_read": FaultSpec(times=1)})
        f = FlatFile(big_file, fault_plan=plan)
        starts = np.array([10, 10 + 3 * GAP, CAP + 5], dtype=np.int64)
        win = f.read_windows(starts, starts + 20)
        assert win.buffer == per_window_oracle(big_file, starts, starts + 20, 0)[0]
        assert f.stats.retries == 1
        assert (f.stats.bytes_read, f.stats.read_calls) == (60, 3)

    def test_persistent_short_read_is_typed(self, big_file):
        plan = FaultPlan({"flatfile.short_read": FaultSpec(times=None)})
        f = FlatFile(big_file, fault_plan=plan)
        with pytest.raises(FlatFileError, match="short window read"):
            f.read_windows(np.array([0, 100]), np.array([10, 110]))
        assert f.stats.bytes_read == 0


class TestThrottle:
    def test_bandwidth_throttle_sleeps(self, csv_file):
        size = os.stat(csv_file).st_size
        f = FlatFile(csv_file, bandwidth_bytes_per_sec=size * 20.0)  # ~50 ms
        start = time.perf_counter()
        f.read_all()
        assert time.perf_counter() - start >= 0.04


class TestFingerprint:
    def test_stable_when_unchanged(self, csv_file):
        assert FileFingerprint.of(csv_file) == FileFingerprint.of(csv_file)

    def test_changes_on_edit(self, csv_file):
        before = FileFingerprint.of(csv_file)
        time.sleep(0.01)
        csv_file.write_text("9,9\n")
        after = FileFingerprint.of(csv_file)
        assert before != after
