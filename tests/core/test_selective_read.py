"""The selective-read fast path: byte savings and result equivalence.

The positional map is the paper's "table of contents over the flat files"
(section 4.1.5).  Once it knows every row and field offset a pass needs,
``run_pass`` must stop re-reading the whole file: a repeat query reads only
the byte ranges of the fields it touches, strictly less than the file.
These tests pin both halves of that promise — the bytes saved *and* the
answers staying identical to the full-scan route.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CSVEngine, EngineConfig, NoDBEngine
from repro.config import POLICIES
from repro.core.loader import (
    SELECTIVE_READ_MAX_GAP,
    _column_runs,
    _field_spans,
    _run_windows,
    run_pass,
)
from repro.errors import ReproError
from repro.flatfile.files import FlatFile, coalesce_ranges, window_totals
from repro.flatfile.positions import PositionalMap
from repro.ranges import Condition, ValueInterval
from repro.storage.catalog import Catalog
from scalar_oracle import split_rows

CONFIG = EngineConfig()


def _write(path, rows, line_ending="\n"):
    path.write_text(line_ending.join(rows) + line_ending, encoding="utf-8")
    return path


def spy_reads(monkeypatch):
    """The :class:`FileWindows` of every ``read_windows`` call from now."""
    reads = []
    real_read = FlatFile.read_windows

    def spy(self, *args, **kwargs):
        reads.append(real_read(self, *args, **kwargs))
        return reads[-1]

    monkeypatch.setattr(FlatFile, "read_windows", spy)
    return reads


class TestRepeatQueryBytes:
    """Acceptance criterion: warm-map repeat query reads < file size."""

    @pytest.fixture
    def csv_file(self, tmp_path):
        rows = [",".join(str(i * 10 + j) for j in range(8)) for i in range(500)]
        return _write(tmp_path / "r.csv", rows)

    def test_partial_v1_repeat_reads_strictly_less(self, csv_file):
        engine = NoDBEngine(EngineConfig(policy="partial_v1"))
        engine.attach("r", csv_file)
        first = engine.query("select sum(a2) from r where a2 > 100")
        cold_bytes = engine.stats.last().file_bytes_read
        second = engine.query("select sum(a2) from r where a2 > 100")
        warm_bytes = engine.stats.last().file_bytes_read
        size = csv_file.stat().st_size
        assert cold_bytes == size  # first touch scans everything
        assert 0 < warm_bytes < size  # the map pays off
        assert engine.stats.last().went_to_file
        assert first.approx_equal(second)
        engine.close()

    def test_toggle_off_restores_full_scans(self, csv_file):
        engine = NoDBEngine(
            EngineConfig(policy="partial_v1", selective_reads=False)
        )
        engine.attach("r", csv_file)
        engine.query("select sum(a2) from r where a2 > 100")
        engine.query("select sum(a2) from r where a2 > 100")
        assert engine.stats.last().file_bytes_read == csv_file.stat().st_size
        engine.close()

    def test_column_load_after_full_row_scan_is_selective(self, csv_file):
        """A query on the last column teaches the map every field range;
        loading any other column afterwards touches only that column."""
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("r", csv_file)
        engine.query("select sum(a8) from r")  # scans whole rows, learns all
        engine.query("select sum(a3) from r")  # new column: selective load
        q = engine.stats.last()
        assert q.went_to_file
        assert 0 < q.file_bytes_read < csv_file.stat().st_size
        engine.close()

    def test_reload_after_eviction_is_selective(self, csv_file):
        """Eviction drops column data but not the map: reloads stay cheap."""
        engine = NoDBEngine(
            EngineConfig(policy="column_loads", memory_budget_bytes=5000)
        )
        engine.attach("r", csv_file)
        engine.query("select sum(a8) from r")  # learn everything
        engine.query("select sum(a3) from r")  # evicts a8 under the budget
        engine.query("select sum(a8) from r")  # reload of a8
        q = engine.stats.last()
        assert q.went_to_file
        assert 0 < q.file_bytes_read < csv_file.stat().st_size
        engine.close()


class TestEquivalence:
    """Selective route answers == full-scan answers == split_rows truth."""

    @pytest.mark.parametrize(
        "delimiter,line_ending,header",
        [
            (",", "\n", False),
            (";", "\n", False),
            ("|", "\n", True),
            (",", "\r\n", False),
            (",", "\r\n", True),
        ],
    )
    def test_loader_matches_ground_truth(
        self, tmp_path, delimiter, line_ending, header
    ):
        rows = [
            delimiter.join(str(i * 7 + j) for j in range(4)) for i in range(60)
        ]
        if header:
            rows.insert(0, delimiter.join(["w", "x", "y", "z"]))
        path = _write(tmp_path / "t.csv", rows, line_ending)
        names = ["w", "x", "y", "z"] if header else ["a1", "a2", "a3", "a4"]
        truth_rows = split_rows(path.read_text(), delimiter)
        if header:
            truth_rows = truth_rows[1:]

        # Column 3 is the last: its end is derived from a boundary one
        # past the field, which on CRLF input sits on the ``\r``.
        for col in (2, 3):
            entry = Catalog().attach("t", path, delimiter=delimiter)
            cold = run_pass(entry, [names[col]], None, CONFIG, parse_all_rows=True)
            warm = run_pass(entry, [names[col]], None, CONFIG, parse_all_rows=True)
            # The second pass must have gone selective: fewer bytes than size.
            assert entry.file.stats.full_scans == 1

            truth = [int(r[col]) for r in truth_rows]
            assert cold.columns[names[col]].tolist() == truth
            assert warm.columns[names[col]].tolist() == truth
            assert warm.nrows == cold.nrows == len(truth)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_engine_answers_identical_with_and_without_fast_path(
        self, tmp_path, policy
    ):
        rows = [",".join(str(i * 3 + j) for j in range(5)) for i in range(200)]
        path = _write(tmp_path / "t.csv", rows)
        sqls = [
            "select sum(a2), avg(a4) from t where a2 > 30 and a2 < 400",
            "select sum(a2), avg(a4) from t where a2 > 30 and a2 < 400",
            "select count(*) from t",
            "select min(a1), max(a5) from t where a4 > 100",
        ]
        results = {}
        for selective in (True, False):
            engine = NoDBEngine(
                EngineConfig(policy=policy, selective_reads=selective)
            )
            engine.attach("t", path)
            results[selective] = [engine.query(s) for s in sqls]
            engine.close()
        for with_fast, without_fast in zip(results[True], results[False]):
            assert with_fast.approx_equal(without_fast)

    def test_selective_pushdown_filters_like_scan_route(self, tmp_path):
        rows = [f"{i},{i * 2},{i * 3}" for i in range(100)]
        path = _write(tmp_path / "t.csv", rows)
        entry = Catalog().attach("t", path)
        # Teach the map every field range with one full-row scan (a
        # predicate pass abandons rows early and cannot learn a3 itself).
        run_pass(entry, ["a3"], None, CONFIG, parse_all_rows=True)
        condition = Condition([("a1", ValueInterval(10, 20))])
        warm = run_pass(entry, ["a1", "a3"], condition, CONFIG, parse_all_rows=False)
        assert warm.row_ids.tolist() == list(range(11, 20))
        assert warm.columns["a3"].tolist() == [i * 3 for i in range(11, 20)]
        assert warm.tokenizer.rows_scanned == 100
        assert warm.tokenizer.rows_emitted == 9
        assert warm.tokenizer.rows_abandoned == 91
        # The partial pass went selective: only the teaching pass scanned.
        assert entry.file.stats.full_scans == 1

    def test_predicate_on_later_column_selective(self, tmp_path):
        rows = [f"{i},{i * 2},{i * 3}" for i in range(100)]
        path = _write(tmp_path / "t.csv", rows)
        entry = Catalog().attach("t", path)
        condition = Condition([("a3", ValueInterval(30, 60))])
        run_pass(entry, ["a1", "a3"], condition, CONFIG, parse_all_rows=False)
        warm = run_pass(entry, ["a1", "a3"], condition, CONFIG, parse_all_rows=False)
        assert warm.columns["a1"].tolist() == [
            i for i in range(100) if 30 < i * 3 < 60
        ]


class TestUtf8Files:
    """The map holds byte offsets, so a UTF-8 file reads selectively like
    an ASCII one, multi-byte fields included."""

    @staticmethod
    def _answers(path, queries):
        """Each query's rows on a ``partial_v1`` engine (which re-reads
        the file every query) and on the CSV oracle, and the engine's
        full scans."""
        engine, oracle = NoDBEngine(EngineConfig(policy="partial_v1")), CSVEngine()
        try:
            engine.attach("t", path)
            oracle.attach("t", path)
            got = [(engine.query(q).rows(), oracle.query(q).rows()) for q in queries]
            return got, engine.catalog.get("t").file.stats.full_scans
        finally:
            engine.close()
            oracle.close()

    def test_non_ascii_file_goes_selective(self, tmp_path):
        words = ["ä", "ö", "café", "東京", "naïve"]
        rows = [f"{i},{words[i % 5]},{i * 7},pad{i:08d}" for i in range(60)]
        path = _write(tmp_path / "t.csv", rows)
        got, full_scans = self._answers(
            path, ["select sum(a1) from t", "select a2, a3 from t where a1 > 40"]
        )
        for engine_rows, oracle_rows in got:
            assert engine_rows == oracle_rows
        # The first pass framed the file; the second read its windows.
        assert full_scans == 1

    def test_multi_byte_fields_ending_in_nul_are_cut_exactly(self, tmp_path):
        words = ["é\0", "あ\0\0", "x\0", "ß\0y", "東京", "\0"]
        rows = [f"{i},{words[i % 6]},pad{i:08d}" for i in range(60)]
        path = _write(tmp_path / "t.csv", rows)
        got, full_scans = self._answers(path, ["select sum(a1) from t", "select a2 from t"])
        assert full_scans == 1
        truth = [(row[1],) for row in split_rows(path.read_text(encoding="utf-8"))]
        assert got[1][0] == got[1][1] == truth


class TestSafetyGates:

    def test_map_disabled_never_goes_selective(self, tmp_path):
        rows = [f"{i},{i}" for i in range(50)]
        path = _write(tmp_path / "t.csv", rows)
        entry = Catalog().attach("t", path)
        cfg = EngineConfig(use_positional_map=False)
        run_pass(entry, ["a1"], None, cfg, parse_all_rows=True)
        run_pass(entry, ["a1"], None, cfg, parse_all_rows=True)
        assert entry.file.stats.full_scans == 2

    def test_file_edit_invalidates_fast_path(self, tmp_path):
        import time

        path = _write(tmp_path / "t.csv", ["1,2", "3,4"])
        engine = NoDBEngine(EngineConfig(policy="partial_v1"))
        engine.attach("t", path)
        assert engine.query("select sum(a1) from t where a1 > 0").scalar() == 4
        time.sleep(0.02)
        _write(path, ["10,2", "30,4", "50,6"])
        assert engine.query("select sum(a1) from t where a1 > 0").scalar() == 90
        engine.close()

    def test_wide_table_selection_prefers_full_scan(self, tmp_path):
        """Selecting (nearly) every byte falls back to one sequential read."""
        rows = [f"{i},{i}" for i in range(50)]
        path = _write(tmp_path / "t.csv", rows)
        entry = Catalog().attach("t", path)
        run_pass(entry, ["a1", "a2"], None, CONFIG, parse_all_rows=True)
        assert entry.positional_map.knows_column(0)
        assert entry.positional_map.knows_column(1)
        run_pass(entry, ["a1", "a2"], None, CONFIG, parse_all_rows=True)
        # Both columns cover ~the whole file; windowed reads would not
        # beat a single sequential scan, so the loader does not bother.
        assert entry.file.stats.full_scans == 2


class _Spans:
    """The two members of a positional map the selective planner reads."""

    sep = 0

    def __init__(self, starts, ends):
        self.nrows = len(starts[0])
        self._spans = {c: (s, e) for c, (s, e) in enumerate(zip(starts, ends))}

    def run_slices(self, cols, rows=None):
        return {
            c: self._spans[c] if rows is None else tuple(a[rows] for a in self._spans[c])
            for c in cols
        }


@st.composite
def row_major_spans(draw):
    """Per-column span arrays laid out row-major, plus a row subset."""
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 30))
    steps = draw(
        st.lists(
            st.integers(0, 40), min_size=2 * ncols * nrows, max_size=2 * ncols * nrows
        )
    )
    bounds = np.cumsum(steps).reshape(nrows, ncols, 2)
    starts = [np.ascontiguousarray(bounds[:, c, 0]) for c in range(ncols)]
    ends = [np.ascontiguousarray(bounds[:, c, 1]) for c in range(ncols)]
    rows = np.array(
        sorted(draw(st.sets(st.integers(0, nrows - 1), min_size=1))), dtype=np.int64
    )
    return starts, ends, rows


class TestPlanning:
    """Selective-read planning: one window per row and run of adjacent
    wanted columns, padded by its separators, already in file order,
    over the rows zone maps keep."""

    def test_column_runs(self):
        assert _column_runs([1, 2, 3, 6]) == [[1, 2, 3], [6]]
        assert _column_runs([0]) == [[0]]
        assert _column_runs([0, 2, 4, 5]) == [[0], [2], [4, 5]]

    @settings(max_examples=200, deadline=None)
    @given(row_major_spans(), st.sampled_from([0, 1, 5, 40, 8192]))
    def test_coalesced_bytes_equal_coalesce_ranges(self, spans, max_gap):
        starts, ends, rows = spans
        pmap = _Spans(starts, ends)
        # Arbitrary spans are not adjacent by construction: give every
        # column its own run, so every step between them is checked.
        runs = [[c] for c in range(len(starts))]
        size = int(ends[-1][-1]) + 1
        every = np.arange(pmap.nrows, dtype=np.int64)
        for subset in (rows, every):
            got = _field_spans(pmap, runs, subset, size)
            assert got is not None
            for c, (s, e) in got.items():
                np.testing.assert_array_equal(s, starts[c][subset])
                np.testing.assert_array_equal(e, ends[c][subset])
            lo, hi = _run_windows(got, runs, size)
            assert bool((lo[1:] >= lo[:-1]).all())  # file order
            assert bool((hi[1:] >= hi[:-1]).all())
            win_starts, win_ends = coalesce_ranges(lo, hi, max_gap)
            extent = int(hi[-1] - lo[0])
            sums = window_totals(lo, hi, max_gap, extent)
            assert (sums is None) == (extent == 0)
            if sums is not None:
                assert sums[:2] == (int((win_ends - win_starts).sum()), len(win_starts))
            # Sorted or shuffled, the same ranges coalesce to the same
            # windows.
            order = np.random.default_rng(7).permutation(len(lo))
            for a, b in zip(
                (win_starts, win_ends),
                coalesce_ranges(lo[order], hi[order], max_gap),
            ):
                np.testing.assert_array_equal(a, b)

    def test_spans_out_of_file_order_mean_a_damaged_map(self):
        rows = np.arange(2, dtype=np.int64)
        # Column 1 lies left of column 0 in the second row.
        starts = [np.array([0, 30]), np.array([10, 20])]
        ends = [np.array([5, 35]), np.array([15, 25])]
        assert _field_spans(_Spans(starts, ends), [[0], [1]], rows, 40) is None
        # Row 2 starts before row 1 ends.
        spans = _Spans([np.array([0, 4])], [np.array([5, 9])])
        assert _field_spans(spans, [[0]], rows, 40) is None
        # A field that ends before it starts.
        spans = _Spans([np.array([0, 30])], [np.array([5, 29])])
        assert _field_spans(spans, [[0]], rows, 40) is None
        # Rows in order, but the last span runs past the file's end.
        spans = _Spans([np.array([0, 30])], [np.array([5, 41])])
        assert _field_spans(spans, [[0]], rows, 40) is None
        assert _field_spans(spans, [[0]], rows, 41) is not None

    def _sorted_file(self, tmp_path):
        # Every column is needed, so the whole file is "wanted": only zone
        # maps can make a windowed read worthwhile.
        rows = [f"{i},{i % 7}" for i in range(4000)]
        return _write(tmp_path / "s.csv", rows)

    def test_zone_survivors_make_a_wide_query_selective(self, tmp_path):
        path = self._sorted_file(tmp_path)
        cfg = EngineConfig(policy="partial_v1", zone_map_rows=256, cracking=False)
        with NoDBEngine(cfg) as engine:
            engine.attach("t", path)
            engine.query("select sum(a1), sum(a2) from t")  # map + zones
            sql = "select sum(a2) from t where a1 >= 1000 and a1 < 1010"
            got = engine.query(sql).scalar()
            q = engine.stats.last()
        assert got == sum(i % 7 for i in range(1000, 1010))
        assert q.zone_map_skips > 0
        assert 0 < q.file_bytes_read < path.stat().st_size // 4

    def test_no_zone_skip_keeps_the_full_scan(self, tmp_path):
        path = self._sorted_file(tmp_path)
        cfg = EngineConfig(policy="partial_v1", zone_map_rows=256, cracking=False)
        with NoDBEngine(cfg) as engine:
            engine.attach("t", path)
            engine.query("select sum(a1), sum(a2) from t")
            got = engine.query("select sum(a2) from t where a1 >= 0").scalar()
            q = engine.stats.last()
        assert got == sum(i % 7 for i in range(4000))
        assert q.zone_map_skips == 0
        assert q.file_bytes_read == path.stat().st_size


class TestOneRead:
    """The first pass learns every column, so a query on a column no
    query has touched is one block read cut by the map: no framing.  A
    predicate far from the output columns adds one read, for the rows
    it keeps."""

    @pytest.fixture
    def wide_file(self, tmp_path):
        rows = [",".join(str(i * 7 + j) for j in range(8)) for i in range(20_000)]
        return _write(tmp_path / "w.csv", rows)

    @pytest.mark.parametrize(
        "policy, sql",
        [
            ("column_loads", "select sum(a5) from t"),
            ("partial_v1", "select sum(a6), count(*) from t where a5 > 70000"),
        ],
    )
    def test_next_column_is_one_block_read(self, wide_file, monkeypatch, policy, sql):
        oracle = CSVEngine()
        oracle.attach("t", wide_file)
        want = oracle.query(sql).rows()
        oracle.close()
        engine = NoDBEngine(EngineConfig(policy=policy))
        try:
            engine.attach("t", wide_file)
            engine.query("select sum(a1) from t")
            reads = []
            real_read = FlatFile.read_windows

            def counted(self, *args, **kwargs):
                reads.append(args)
                return real_read(self, *args, **kwargs)

            def no_framing(*args, **kwargs):
                raise AssertionError("a next-column query framed the file")

            monkeypatch.setattr(FlatFile, "read_windows", counted)
            monkeypatch.setattr("repro.core.loader.tokenize_bytes", no_framing)
            got = engine.query(sql).rows()
            assert len(reads) == 1
            assert 0 < engine.stats.last().file_bytes_read < wide_file.stat().st_size
            assert got == want
        finally:
            engine.close()


    def test_far_output_column_is_read_for_survivors_only(
        self, wide_file, monkeypatch
    ):
        # a8 holds the predicate, a1 the output: a window run apart.  The
        # a8 windows are read for every row, the a1 windows only for the
        # rows the predicate keeps, never for a row it drops.
        sql = "select sum(a1), count(*) from t where a8 > 139000"
        oracle = CSVEngine()
        oracle.attach("t", wide_file)
        want = oracle.query(sql).rows()
        oracle.close()
        with NoDBEngine(EngineConfig(policy="partial_v1")) as engine:
            engine.attach("t", wide_file)
            engine.query("select sum(a1) from t")
            reads = []
            real_read = FlatFile.read_windows

            def counted(self, starts, ends, **kwargs):
                reads.append(len(starts))
                return real_read(self, starts, ends, **kwargs)

            monkeypatch.setattr(FlatFile, "read_windows", counted)
            got = engine.query(sql).rows()
        assert got == want
        assert reads == [20_000, want[0][1]]

    def test_dense_read_counts_its_windows(self, wide_file, monkeypatch):
        # a5 and a6 in every row: narrow windows, but blocks that span
        # the file, so one read from the file start.  Still only the
        # coalesced windows are counted.
        sql = "select sum(a6), count(*) from t where a5 > 70000"
        size = wide_file.stat().st_size
        oracle = CSVEngine()
        oracle.attach("t", wide_file)
        want = oracle.query(sql).rows()
        oracle.close()
        with NoDBEngine(EngineConfig(policy="partial_v1")) as engine:
            engine.attach("t", wide_file)
            engine.query("select sum(a1) from t")
            pmap = engine.catalog.get("t").positional_map
            lo, hi = _run_windows(pmap.run_slices([4, 5]), [[4, 5]], size)
            ws, we = coalesce_ranges(lo, hi, SELECTIVE_READ_MAX_GAP - 2)
            reads = spy_reads(monkeypatch)
            got = engine.query(sql).rows()
            q = engine.stats.last()
        assert got == want
        (win,) = reads
        assert (win.starts.tolist(), win.ends.tolist()) == ([0], [int(hi[-1])])
        assert (q.file_bytes_read, q.file_reads) == (int((we - ws).sum()), len(ws))
        assert q.file_bytes_read < size // 2

    def test_file_truncated_under_a_dense_read_never_answers_wrong(
        self, wide_file, monkeypatch
    ):
        sql = "select sum(a6), count(*) from t where a5 > 70000"
        data = wide_file.read_bytes()
        cut = data.index(b"\n", len(data) // 2) + 1
        with NoDBEngine(EngineConfig(policy="partial_v1")) as engine:
            engine.attach("t", wide_file)
            engine.query("select sum(a1) from t")
            real_read = FlatFile.read_windows
            truncated = []

            def truncating(self, *args, **kwargs):
                with open(self.path, "r+b") as f:
                    f.truncate(cut)
                truncated.append(True)
                return real_read(self, *args, **kwargs)

            monkeypatch.setattr(FlatFile, "read_windows", truncating)
            try:
                got = engine.query(sql).rows()
            except ReproError:
                got = None
        assert truncated
        if got is not None:
            oracle = CSVEngine()
            oracle.attach("t", wide_file)
            assert got == oracle.query(sql).rows()
            oracle.close()


class TestSpanCheck:
    """A gathered span must be a field: a positional map damaged on disk
    (same size, so the store restores it) costs a re-frame, never an
    answer."""

    SQL = "select sum(b), count(*) from t where b > 10"

    @pytest.mark.parametrize(
        "boundary, delta, read",
        [
            (2, 1, True),  # b's end runs into c: no delimiter after it
            (1, 1, True),  # b's start skips a digit: none before it
            (1, -4, True),  # b's start lands inside a
            # b's start lies rows ahead of its end: out of file order, so
            # nothing is read through the map.
            (1, 10_000, False),
        ],
    )
    def test_damaged_map_on_disk_never_changes_an_answer(
        self, tmp_path, boundary, delta, read
    ):
        rows = ["a,b,c"] + [f"{i},{3 * i},{i % 7}" for i in range(20_000)]
        path = _write(tmp_path / "t.csv", rows)
        cfg = EngineConfig(policy="partial_v1", store_dir=tmp_path / "store")
        with NoDBEngine(cfg) as first:
            first.attach("t", path)
            first.query(self.SQL)
            first.flush_persistent_store()
        # One frame row per file row: a, b and c's starts, then c's end
        # plus its separator.
        (stored,) = (tmp_path / "store").rglob("pm.bin")
        frame = np.fromfile(stored, dtype=np.int64).reshape(-1, 4)
        frame[3000:3010, boundary] += delta
        frame.tofile(stored)

        oracle = CSVEngine()
        oracle.attach("t", path)
        with NoDBEngine(cfg) as second:
            second.attach("t", path)
            assert second.query(self.SQL).rows() == oracle.query(self.SQL).rows()
            assert second.stats.counters.restart_warm_hits == 1
            # The damaged map was dropped (after its one window read, when
            # its spans were in file order) and the file framed afresh:
            # the map that pass learned serves the next query with a
            # window read again.
            framed = second.stats.last().file_bytes_read
            assert (framed > path.stat().st_size) is read
            assert framed >= path.stat().st_size
            assert second.query(self.SQL).rows() == oracle.query(self.SQL).rows()
            assert second.stats.last().file_bytes_read < path.stat().st_size
        # The re-framed map replaced the damaged one on disk: a third
        # restart reads through it from its first query.
        with NoDBEngine(cfg) as third:
            third.attach("t", path)
            assert third.query(self.SQL).rows() == oracle.query(self.SQL).rows()
            assert third.stats.counters.restart_warm_hits == 1
            assert third.stats.last().file_bytes_read < path.stat().st_size
        oracle.close()

    @pytest.mark.parametrize("boundary, delta", [(2, 1), (1, 1), (1, -4)])
    def test_dense_read_checks_every_separator(
        self, tmp_path, monkeypatch, boundary, delta
    ):
        rows = ["a,b,c"] + [f"{i},{3 * i},{i % 7}" for i in range(20_000)]
        path = _write(tmp_path / "t.csv", rows)
        size = path.stat().st_size
        oracle = CSVEngine()
        oracle.attach("t", path)
        want = oracle.query(self.SQL).rows()
        oracle.close()
        with NoDBEngine(EngineConfig(policy="partial_v1")) as engine:
            engine.attach("t", path)
            engine.query(self.SQL)
            pmap = engine.catalog.get("t").positional_map
            learned = pmap.frame
            damaged = learned.copy()
            damaged[3000:3010, boundary] += delta
            pmap.frame = damaged
            reads = spy_reads(monkeypatch)
            assert engine.query(self.SQL).rows() == want
            # One dense read through the damaged map, then a re-frame.
            (win,) = reads
            assert win.starts.tolist() == [0]
            assert engine.stats.last().file_bytes_read > size
            np.testing.assert_array_equal(pmap.frame, learned)
            assert engine.query(self.SQL).rows() == want
            assert engine.stats.last().file_bytes_read < size


class TestMapUnderBudget:
    """A framing pass learns every column's spans, 8 bytes a row each: on
    a wide file of short fields more than the file.  Under a memory
    budget the columns past the query's are kept only while they fit."""

    NCOLS = 40

    @pytest.fixture
    def wide_file(self, tmp_path):
        rows = [
            ",".join(str((i * 31 + j) % 10) for j in range(self.NCOLS))
            for i in range(2000)
        ]
        return _write(tmp_path / "wide.csv", rows)

    def _oracle(self, path, sql):
        oracle = CSVEngine()
        oracle.attach("t", path)
        try:
            return oracle.query(sql).rows()
        finally:
            oracle.close()

    def test_unbudgeted_map_learns_every_column(self, wide_file):
        with NoDBEngine(EngineConfig(policy="column_loads")) as engine:
            engine.attach("t", wide_file)
            engine.query("select sum(a1) from t")
            pmap = engine.catalog.get("t").positional_map
            assert pmap.known_columns() == list(range(self.NCOLS))
            assert pmap.nbytes > wide_file.stat().st_size

    def test_budget_cuts_the_frame_back_to_the_query(self, wide_file):
        size = wide_file.stat().st_size
        cfg = EngineConfig(policy="column_loads", memory_budget_bytes=64_000)
        with NoDBEngine(cfg) as engine:
            engine.attach("t", wide_file)
            pmap = engine.catalog.get("t").positional_map
            for sql, known, framed in [
                ("select sum(a1) from t", 1, True),
                # a5 is past the kept prefix: frame again, keep a1..a5.
                ("select sum(a5) from t", 5, True),
                # a3 lies inside it: a window read.
                ("select sum(a3) from t", 5, False),
            ]:
                assert engine.query(sql).rows() == self._oracle(wide_file, sql)
                assert pmap.known_columns() == list(range(known))
                assert (engine.stats.last().file_bytes_read == size) is framed

    def test_a_cut_map_frees_the_columns_it_drops(self, wide_file, monkeypatch):
        # Catch the frame the framing pass learned, before the budget cut.
        learned = []
        record = PositionalMap.record_frame

        def spy(self, frame, *, sep):
            learned.append(frame)
            record(self, frame, sep=sep)

        monkeypatch.setattr(PositionalMap, "record_frame", spy)
        cfg = EngineConfig(policy="column_loads", memory_budget_bytes=64_000)
        with NoDBEngine(cfg) as engine:
            engine.attach("t", wide_file)
            engine.query("select sum(a3) from t")
            pmap = engine.catalog.get("t").positional_map
            (frame,) = learned
            assert frame.shape == (2000, self.NCOLS + 1)
            assert pmap.known_columns() == [0, 1, 2]
            assert not np.shares_memory(pmap.frame, frame)
            assert pmap.nbytes == (3 + 1) * 2000 * 8
