"""Threaded window reads must be byte-identical to serial ones."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flatfile.files import FlatFile


@pytest.fixture()
def big_file(tmp_path):
    path = tmp_path / "data.bin"
    rows = "\n".join(f"{i:08d},{i * 7:08d}" for i in range(5000))
    path.write_text(rows)
    return path


def scattered_ranges(size: int, n: int = 200, width: int = 9):
    rng = np.random.default_rng(13)
    starts = np.sort(rng.integers(0, size - width, n))
    return starts, starts + width


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_threaded_windows_match_serial(big_file, workers):
    size = big_file.stat().st_size
    starts, ends = scattered_ranges(size)
    serial = FlatFile(big_file).read_windows(starts, ends)
    threaded = FlatFile(big_file).read_windows(starts, ends, workers=workers)
    assert threaded.buffer == serial.buffer
    np.testing.assert_array_equal(threaded.starts, serial.starts)
    np.testing.assert_array_equal(threaded.ends, serial.ends)
    np.testing.assert_array_equal(threaded.offsets, serial.offsets)


def test_threaded_windows_accounting_matches(big_file):
    size = big_file.stat().st_size
    starts, ends = scattered_ranges(size)
    serial_file = FlatFile(big_file)
    serial_file.read_windows(starts, ends)
    threaded_file = FlatFile(big_file)
    threaded_file.read_windows(starts, ends, workers=4)
    assert threaded_file.stats.bytes_read == serial_file.stats.bytes_read
    assert threaded_file.stats.read_calls == serial_file.stats.read_calls


def test_few_windows_stay_serial(big_file):
    # below the per-thread minimum the pool is skipped entirely
    starts = np.asarray([0, 100, 200], dtype=np.int64)
    ends = starts + 10
    windows = FlatFile(big_file).read_windows(starts, ends, workers=8)
    assert windows.window_bytes == 30
    # The three windows share one block: the buffer holds their gaps too.
    assert windows.buffer_bytes == 210
    assert windows.buffer == big_file.read_bytes()[:210]


def test_translate_still_works_after_threaded_read(big_file):
    size = big_file.stat().st_size
    starts, ends = scattered_ranges(size)
    windows = FlatFile(big_file).read_windows(starts, ends, workers=4)
    data = big_file.read_bytes()
    positions = windows.translate(starts)
    for s, pos in zip(starts.tolist(), positions.tolist()):
        assert windows.buffer[pos : pos + 9] == data[s : s + 9]


def test_account_reads_updates_counters(big_file):
    f = FlatFile(big_file)
    f.account_reads(1000, calls=3, full_scan=True)
    assert f.stats.bytes_read == 1000
    assert f.stats.read_calls == 3
    assert f.stats.full_scans == 1
