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
from repro.flatfile.files import FileFingerprint, FlatFile, window_totals
from scalar_oracle import coalesce_ranges


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
        assert f.read_all_bytes() == b"1,2\n3,4\n5,6\n"

    def test_read_range(self, csv_file):
        f = FlatFile(csv_file)
        assert f.read_range_bytes(4, 7) == b"3,4"

    def test_bad_range_rejected(self, csv_file):
        f = FlatFile(csv_file)
        with pytest.raises(FlatFileError):
            f.read_range_bytes(5, 2)
        with pytest.raises(FlatFileError):
            f.read_range_bytes(-1, 2)


class TestAccounting:
    def test_bytes_counted(self, csv_file):
        f = FlatFile(csv_file)
        f.read_all_bytes()
        f.read_all_bytes()
        assert f.stats.bytes_read == 2 * f.size_bytes()
        assert f.stats.read_calls == 2
        assert f.stats.full_scans == 2

    def test_range_reads_not_full_scans(self, csv_file):
        f = FlatFile(csv_file)
        f.read_range_bytes(0, 3)
        assert f.stats.full_scans == 0
        assert f.stats.bytes_read == 3

    def test_sample_rows_bounded(self, csv_file):
        f = FlatFile(csv_file)
        rows = f.sample_rows(limit=2)
        assert rows == [["1", "2"], ["3", "4"]]
        assert f.stats.bytes_read <= f.size_bytes()


def _ranges(pairs):
    return (
        np.array([s for s, _ in pairs], dtype=np.int64),
        np.array([e for _, e in pairs], dtype=np.int64),
    )


class TestCoalesce:
    """Ranges in file order merge into windows: the bytes and count that
    ``read_windows`` accounts (``TestBlockReads`` and ``TestPlanning``
    compare them with the :func:`coalesce_ranges` oracle's windows)."""

    def _totals(self, pairs, max_gap=0):
        return window_totals(*_ranges(pairs), max_gap)

    def test_empty(self):
        assert self._totals([]) == (0, 0)

    def test_disjoint_stay_separate(self):
        assert self._totals([(0, 3), (10, 12)]) == (5, 2)

    def test_touching_merge(self):
        assert self._totals([(0, 3), (3, 6)]) == (6, 1)

    def test_overlapping_merge(self):
        assert self._totals([(0, 5), (3, 8)]) == (8, 1)

    def test_gap_tolerance(self):
        assert self._totals([(0, 3), (5, 8)], max_gap=2) == (8, 1)
        assert self._totals([(0, 3), (6, 8)], max_gap=2) == (5, 2)

    def test_empty_range_is_a_window(self):
        assert self._totals([(0, 3), (10, 10), (20, 25)]) == (8, 3)

    def test_malformed_rejected(self, csv_file):
        f = FlatFile(csv_file)
        with pytest.raises(FlatFileError):
            f.read_windows(*_ranges([(5, 2)]))
        with pytest.raises(FlatFileError):
            f.read_windows(*_ranges([(-1, 2)]))
        with pytest.raises(FlatFileError):
            f.read_windows(*_ranges([(0, 2)]), max_gap=-1)
        with pytest.raises(FlatFileError):
            f.read_windows(np.array([0, 4]), np.array([2]))
        assert f.stats.read_calls == 0


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

    def test_shift_maps_file_offsets_into_buffer(self, big_file):
        f = FlatFile(big_file)
        starts = np.array([3 * GAP, 6 * GAP], dtype=np.int64)
        win = f.read_windows(starts, starts + 4)
        assert len(win.starts) == 2
        positions = np.array([6 * GAP + 1, 3 * GAP, 3 * GAP + 3])
        local = (positions + win.shift(positions)).tolist()
        got = [bytes(win.buffer[i : i + 1]) for i in local]
        assert got == [file_bytes(big_file, p, p + 1) for p in positions.tolist()]

    def test_shift_outside_windows_rejected(self, csv_file):
        f = FlatFile(csv_file)
        win = f.read_windows(np.array([0]), np.array([3]))
        with pytest.raises(FlatFileError):
            win.shift(np.array([7]))

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
BIG = 320 * GAP


@pytest.fixture(scope="module")
def big_file(tmp_path_factory):
    """Two and a half MiB of seeded bytes."""
    path = tmp_path_factory.mktemp("blocks") / "big.bin"
    rng = np.random.default_rng(17)
    path.write_bytes(rng.integers(0, 256, BIG, dtype=np.uint8).tobytes())
    return path


def per_window_oracle(path, starts, ends, max_gap):
    """The reads a window list costs one ``seek``+``read`` at a time."""
    ws, we = coalesce_ranges(starts, ends, max_gap)
    with open(path, "rb") as f:
        chunks = []
        for s, e in zip(ws.tolist(), we.tolist()):
            f.seek(s)
            chunks.append(f.read(e - s))
    return chunks, ws, we


def file_bytes(path, start, end):
    with open(path, "rb") as f:
        f.seek(start)
        return f.read(end - start)


def cut(win, start, end):
    """File bytes ``[start, end)`` cut from a window read through ``shift``."""
    at = start + win.shift(np.array([start, end]))
    at = int(at if np.ndim(at) == 0 else at[0])
    return bytes(win.buffer[at : at + end - start])


@st.composite
def window_requests(draw):
    """Ranges in file order, starts and ends both: the first near byte 0,
    steps around the block gap, overlapping, touching and empty ones."""
    starts, ends = [], []
    pos = draw(st.sampled_from([0, 1, GAP - 1, GAP, GAP + 1, 3 * GAP]))
    end = 0
    for _ in range(draw(st.integers(0, 40))):
        start = min(max(pos, starts[-1] if starts else 0), BIG)
        end = min(max(start + draw(st.integers(0, 40)), end), BIG)
        starts.append(start)
        ends.append(end)
        pos = end + draw(
            st.sampled_from([-9, -1, 0, 1, 5, GAP - 1, GAP, GAP + 1, 3 * GAP, 90 * GAP])
        )
    return np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)


class TestBlockReads:
    @settings(max_examples=120, deadline=None)
    @given(request=window_requests(), max_gap=st.sampled_from([0, 4]))
    def test_buffer_matches_per_window_reads(self, big_file, request, max_gap):
        starts, ends = request
        f = FlatFile(big_file)
        win = f.read_windows(starts, ends, max_gap=max_gap)
        chunks, ws, we = per_window_oracle(big_file, starts, ends, max_gap)
        assert win.window_bytes == f.stats.bytes_read == sum(map(len, chunks))
        assert f.stats.read_calls == len(ws)
        # Every window and every range, cut through shift, is its
        # per-window read.
        for start, end, chunk in zip(ws.tolist(), we.tolist(), chunks):
            assert cut(win, start, end) == chunk
        for start, end in zip(starts.tolist(), ends.tolist()):
            assert cut(win, start, end) == file_bytes(big_file, start, end)
        # The buffer is the blocks, each one contiguous run of the file,
        # more than the block gap apart; byte 0 counts as a window start.
        blocks = list(zip(win.starts.tolist(), win.ends.tolist(), win.offsets.tolist()))
        for start, end, at in blocks:
            assert win.buffer[at : at + end - start] == file_bytes(big_file, start, end)
        assert all(b[0] - a[1] > GAP for a, b in zip(blocks, blocks[1:]))
        assert win.buffer_bytes == int((win.ends - win.starts).sum())
        if len(starts):
            assert (win.starts[0] == 0) == (starts[0] <= GAP)

    def test_many_blocks_match_per_window_reads(self, big_file):
        starts = np.arange(40, dtype=np.int64) * (3 * GAP) + 7  # 40 blocks
        win = FlatFile(big_file).read_windows(starts, starts + 9)
        assert win.starts.tolist() == [0, *starts[1:].tolist()]
        chunks = per_window_oracle(big_file, starts, starts + 9, 0)[0]
        assert [cut(win, s, s + 9) for s in starts.tolist()] == chunks

    def test_short_read_is_retried(self, big_file):
        plan = FaultPlan({"flatfile.short_read": FaultSpec(times=1)})
        f = FlatFile(big_file, fault_plan=plan)
        starts = np.array([10, 10 + 3 * GAP, 200 * GAP + 5], dtype=np.int64)
        win = f.read_windows(starts, starts + 20)
        assert len(win.starts) == 3
        chunks = per_window_oracle(big_file, starts, starts + 20, 0)[0]
        assert [cut(win, s, s + 20) for s in starts.tolist()] == chunks
        assert f.stats.retries == 1
        assert (f.stats.bytes_read, f.stats.read_calls) == (60, 3)

    def test_persistent_short_read_is_typed(self, big_file):
        plan = FaultPlan({"flatfile.short_read": FaultSpec(times=None)})
        f = FlatFile(big_file, fault_plan=plan)
        with pytest.raises(FlatFileError, match="short window read"):
            f.read_windows(np.array([0, 100]), np.array([10, 110]))
        assert f.stats.bytes_read == 0


def file_ordered(seed, size, max_gap):
    """One range every few bytes from the file start to near its end, in
    file order, some gaps within ``max_gap`` and some wider: the windows
    of one column in every row."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(0, 2 * max_gap + 6, size // 8)
    lengths = rng.integers(0, 12, size // 8)
    starts = np.cumsum(steps + np.append(0, lengths[:-1]))
    keep = starts + lengths <= size
    return starts[keep], (starts + lengths)[keep]


SMALL = 1 << 18


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    """A quarter MiB of seeded bytes."""
    path = tmp_path_factory.mktemp("one_block") / "small.bin"
    rng = np.random.default_rng(19)
    path.write_bytes(rng.integers(0, 256, SMALL, dtype=np.uint8).tobytes())
    return path


class TestDenseReads:
    """Dense ranges in file order, as a selective read of every row asks
    for them, are one block from byte 0, accounted as their windows."""

    def _one_block(self, win, end):
        assert (win.starts.tolist(), win.ends.tolist(), win.offsets.tolist()) == (
            [0],
            [end],
            [0],
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), max_gap=st.sampled_from([0, 4]))
    def test_same_windows_and_counts_as_per_window_reads(self, small_file, seed, max_gap):
        starts, ends = file_ordered(seed, SMALL, max_gap)
        f = FlatFile(small_file)
        win = f.read_windows(starts, ends, max_gap=max_gap)
        self._one_block(win, int(ends[-1]))
        chunks, ws, we = per_window_oracle(small_file, starts, ends, max_gap)
        assert win.window_bytes == f.stats.bytes_read == sum(map(len, chunks))
        assert f.stats.read_calls == len(ws)
        assert win.buffer == file_bytes(small_file, 0, int(ends[-1]))
        got = [bytes(win.buffer[s:e]) for s, e in zip(ws.tolist(), we.tolist())]
        assert got == chunks

    def test_windows_that_tile_the_file_are_its_bytes(self, small_file):
        starts = np.arange(0, SMALL, 10, dtype=np.int64)
        ends = np.minimum(starts + 10, SMALL)
        f = FlatFile(small_file)
        win = f.read_windows(starts, ends)
        self._one_block(win, SMALL)
        assert win.buffer == file_bytes(small_file, 0, SMALL)
        assert (win.window_bytes, f.stats.bytes_read) == (SMALL, SMALL)
        assert f.stats.read_calls == 1

    def test_short_read_is_retried(self, small_file):
        starts, ends = file_ordered(3, SMALL, 4)
        plan = FaultPlan({"flatfile.short_read": FaultSpec(times=1)})
        f = FlatFile(small_file, fault_plan=plan)
        win = f.read_windows(starts, ends, max_gap=4)
        self._one_block(win, int(ends[-1]))
        assert win.buffer == file_bytes(small_file, 0, int(ends[-1]))
        assert f.stats.retries == 1
        chunks, ws, _ = per_window_oracle(small_file, starts, ends, 4)
        assert (f.stats.bytes_read, f.stats.read_calls) == (sum(map(len, chunks)), len(ws))

    def test_persistent_short_read_is_typed(self, small_file):
        starts, ends = file_ordered(3, SMALL, 4)
        plan = FaultPlan({"flatfile.short_read": FaultSpec(times=None)})
        f = FlatFile(small_file, fault_plan=plan)
        with pytest.raises(FlatFileError, match="short window read"):
            f.read_windows(starts, ends, max_gap=4)
        assert (f.stats.bytes_read, f.stats.read_calls) == (0, 0)

    def test_shift_is_one_number_for_one_block(self, small_file):
        starts, ends = file_ordered(5, SMALL, 0)
        win = FlatFile(small_file).read_windows(starts, ends)
        assert win.shift(starts) == 0
        with pytest.raises(FlatFileError):
            win.shift(np.array([int(ends[-1]) + 1]))


class TestThrottle:
    def test_bandwidth_throttle_sleeps(self, csv_file):
        size = os.stat(csv_file).st_size
        f = FlatFile(csv_file, bandwidth_bytes_per_sec=size * 20.0)  # ~50 ms
        start = time.perf_counter()
        f.read_all_bytes()
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
