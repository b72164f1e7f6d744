"""Appends aren't rewrites: incremental maintenance for growing logs.

A pure tail-append — the file grew, the prior region is byte-identical —
must *extend* the learned state (positional map, fully loaded columns,
zone maps, persisted entry) instead of wiping it, while
structures whose answers genuinely changed (crackers, cached results)
still invalidate.  Everything else (head edits, truncation, same-size
rewrites) keeps the full-invalidation behavior of section 5.4.
"""

import os
import time

import pytest

from repro import EngineConfig, NoDBEngine
from repro.baselines.csv_engine import CSVEngine
from repro.errors import FlatFileError
from repro.flatfile.files import FileFingerprint, detect_tail_append


def write_rows(path, rng):
    path.write_text("".join(f"{i},{i * 3},{i % 11}\n" for i in rng))


def append_rows(path, rng):
    time.sleep(0.002)  # distinct mtime even on coarse filesystems
    with open(path, "a") as fh:
        for i in rng:
            fh.write(f"{i},{i * 3},{i % 11}\n")


@pytest.fixture
def growing_csv(tmp_path):
    path = tmp_path / "log.csv"
    write_rows(path, range(500))
    return path


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


class TestDetectTailAppend:
    def test_pure_append_detected(self, growing_csv):
        old = FileFingerprint.of(growing_csv)
        append_rows(growing_csv, range(500, 520))
        new = FileFingerprint.of(growing_csv)
        assert detect_tail_append(growing_csv, old, new)

    def test_same_size_rewrite_rejected(self, growing_csv):
        old = FileFingerprint.of(growing_csv)
        text = growing_csv.read_text()
        growing_csv.write_text("9" + text[1:])
        new = FileFingerprint.of(growing_csv)
        assert not detect_tail_append(growing_csv, old, new)

    def test_truncation_rejected(self, growing_csv):
        old = FileFingerprint.of(growing_csv)
        growing_csv.write_text(growing_csv.read_text()[: old.size // 2])
        new = FileFingerprint.of(growing_csv)
        assert not detect_tail_append(growing_csv, old, new)

    def test_grow_with_head_edit_rejected(self, growing_csv):
        old = FileFingerprint.of(growing_csv)
        text = growing_csv.read_text()
        growing_csv.write_text("9" + text[1:] + "777,2331,7\n")
        new = FileFingerprint.of(growing_csv)
        assert not detect_tail_append(growing_csv, old, new)

    def test_grow_with_old_tail_edit_rejected(self, growing_csv):
        # The last bytes of the old region changed: the probe of the old
        # tail region must catch it even though the head (first 4 KiB)
        # is untouched and the file grew.
        old = FileFingerprint.of(growing_csv)
        text = growing_csv.read_text()
        growing_csv.write_text(text[:-2] + "9\n" + "777,2331,7\n")
        new = FileFingerprint.of(growing_csv)
        assert not detect_tail_append(growing_csv, old, new)

    def test_missing_file_rejected(self, growing_csv):
        old = FileFingerprint.of(growing_csv)
        append_rows(growing_csv, range(500, 510))
        new = FileFingerprint.of(growing_csv)
        growing_csv.unlink()
        assert not detect_tail_append(growing_csv, old, new)

    def test_none_fingerprints_rejected(self, growing_csv):
        fp = FileFingerprint.of(growing_csv)
        assert not detect_tail_append(growing_csv, None, fp)
        assert not detect_tail_append(growing_csv, fp, None)


class TestFingerprintProbeRace:
    def test_vanished_file_raises_clean_error(self, tmp_path):
        """stat-to-probe race: a missing file must surface as the
        library's own error type, never a raw OSError."""
        with pytest.raises(FlatFileError):
            FileFingerprint.of(tmp_path / "never-existed.csv")

    def test_manifest_roundtrip_carries_both_probes(self, growing_csv):
        fp = FileFingerprint.of(growing_csv)
        assert fp.head and fp.tail
        again = FileFingerprint.from_manifest(fp.as_manifest())
        assert again == fp


# ---------------------------------------------------------------------------
# extension through the engine
# ---------------------------------------------------------------------------


class TestAppendExtension:
    def test_warm_table_extends_and_answers_match(self, growing_csv):
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", growing_csv)
        cold = engine.query("select sum(a1), sum(a2) from t")
        cold_bytes = cold.stats["file_bytes_read"]
        append_rows(growing_csv, range(500, 505))
        result = engine.query("select sum(a1), sum(a2) from t")
        assert result.rows()[0] == (
            sum(range(505)),
            sum(i * 3 for i in range(505)),
        )
        assert engine.stats.counters.append_extensions == 1
        # Only the appended region (plus the boundary byte) was read.
        assert result.stats["file_bytes_read"] <= cold_bytes * 0.1
        engine.close()

    def test_extension_covers_filters_over_new_rows(self, growing_csv):
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", growing_csv)
        engine.query("select sum(a1) from t where a1 > 100")
        append_rows(growing_csv, range(500, 540))
        got = engine.query("select count(*) from t where a1 >= 498").scalar()
        assert got == 42
        assert engine.stats.counters.append_extensions == 1
        engine.close()

    def test_positional_map_extended(self, growing_csv):
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", growing_csv)
        engine.query("select a1, a2, a3 from t")
        entry = engine.catalog.get("t")
        append_rows(growing_csv, range(500, 520))
        engine.query("select sum(a1) from t")
        assert entry.table.nrows == 520
        pm = entry.positional_map
        assert pm.nrows == 520
        assert pm.known_columns() == [0, 1, 2]
        assert all(len(pm.slices_for(c)[1]) == 520 for c in range(3))
        engine.close()

    def test_full_frame_after_append_matches_oracle(self, growing_csv):
        """A pass that frames the whole grown file answers like the
        oracle after the extension."""
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", growing_csv)
        engine.query("select sum(a1) from t")
        append_rows(growing_csv, range(500, 700))
        query = "select sum(a1), sum(a3), count(*) from t where a2 > 300"
        # The map knows every column, so a column load would read only
        # the a2 and a3 windows: the external policy frames the whole
        # file instead.
        engine.set_policy("external")
        got = engine.query(query).rows()
        assert engine.stats.counters.append_extensions == 1
        assert engine.stats.last().file_bytes_read >= growing_csv.stat().st_size
        oracle = CSVEngine()
        oracle.attach("t", growing_csv)
        assert got == oracle.query(query).rows()
        oracle.close()
        engine.close()

    def test_non_ascii_tail_keeps_the_selective_route(self, tmp_path):
        """An ASCII file that gains a UTF-8 tail keeps its byte frame: a
        query on columns no query loaded yet reads their windows, not the
        whole file, and answers like the oracle."""
        path = tmp_path / "log.csv"
        path.write_text("".join(f"{i},{i * 3},w{i % 7},{i % 11}\n" for i in range(500)))
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", path)
        engine.query("select sum(a1) from t")
        time.sleep(0.002)  # distinct mtime even on coarse filesystems
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(f"{i},{i * 3},café,{i % 11}\n" for i in range(500, 600))
        engine.query("select sum(a1) from t")
        assert engine.stats.counters.append_extensions == 1
        oracle = CSVEngine()
        oracle.attach("t", path)
        for query in (
            "select sum(a2), count(*) from t where a4 > 5",
            "select a1, a3 from t where a1 > 495 and a1 < 505",
        ):
            assert engine.query(query).rows() == oracle.query(query).rows()
            assert engine.stats.last().file_bytes_read < path.stat().st_size
        oracle.close()
        engine.close()

    def test_zone_maps_extended_and_still_skip(self, growing_csv):
        engine = NoDBEngine(
            EngineConfig(policy="column_loads", zone_map_rows=64)
        )
        engine.attach("t", growing_csv)
        engine.query("select a1, a2, a3 from t")
        entry = engine.catalog.get("t")
        append_rows(growing_csv, range(500, 700))
        engine.query("select count(*) from t")
        if entry.zone_maps is not None:
            assert entry.zone_maps.nrows == 700
        got = engine.query("select sum(a1) from t where a1 > 650").scalar()
        assert got == sum(range(651, 700))
        engine.close()

    def test_multiple_appends_stack(self, growing_csv):
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", growing_csv)
        engine.query("select sum(a1) from t")
        total = 500
        for step in range(3):
            append_rows(growing_csv, range(total, total + 7))
            total += 7
            assert engine.query("select count(*) from t").scalar() == total
        assert engine.stats.counters.append_extensions == 3
        engine.close()

    def test_ragged_last_line_append_still_correct(self, growing_csv):
        """Appending onto a file whose old content lacks a trailing
        newline cannot be framed as a standalone tail; the engine must
        fall back to full invalidation and still answer correctly."""
        growing_csv.write_text(growing_csv.read_text()[:-1])  # strip \n
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", growing_csv)
        engine.query("select count(*) from t")
        time.sleep(0.002)
        with open(growing_csv, "a") as fh:
            fh.write("\n500,1500,5\n")
        assert engine.query("select count(*) from t").scalar() == 501
        assert engine.stats.counters.append_extensions == 0
        engine.close()

    def test_blank_line_append_rebrands_without_reload(self, growing_csv):
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", growing_csv)
        engine.query("select sum(a1) from t")
        time.sleep(0.002)
        with open(growing_csv, "a") as fh:
            fh.write("\n\n")
        assert engine.query("select count(*) from t").scalar() == 500
        engine.close()

    def test_crackers_invalidated_on_append(self, growing_csv):
        engine = NoDBEngine(
            EngineConfig(policy="column_loads", crack_after=1)
        )
        engine.attach("t", growing_csv)
        engine.query("select sum(a2) from t")
        for _ in range(3):
            engine.query("select sum(a2) from t where a1 > 100")
        entry = engine.catalog.get("t")
        had_crackers = bool(entry.crackers)
        append_rows(growing_csv, range(500, 520))
        got = engine.query("select sum(a2) from t where a1 > 100").scalar()
        assert got == sum(i * 3 for i in range(101, 520))
        if had_crackers:
            # rebuilt (or empty) over the new row set, never stale
            for cracker in entry.crackers.values():
                assert len(cracker) == 520
        engine.close()

    def test_result_cache_invalidated_on_append(self, growing_csv):
        engine = NoDBEngine(
            EngineConfig(policy="column_loads", result_cache=True)
        )
        engine.attach("t", growing_csv)
        q = "select count(*) from t"
        assert engine.query(q).scalar() == 500
        assert engine.query(q).scalar() == 500  # cached
        append_rows(growing_csv, range(500, 510))
        assert engine.query(q).scalar() == 510
        engine.close()


class TestNonAppendStillInvalidates:
    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(
                lambda text: "9" + text[1:] + "900,2700,9\n", id="head-edit-grow"
            ),
            pytest.param(lambda text: text[: len(text) // 2], id="truncate"),
            pytest.param(lambda text: "8" + text[1:], id="same-size-rewrite"),
        ],
    )
    def test_full_invalidation(self, growing_csv, mutate):
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", growing_csv)
        engine.query("select sum(a1) from t")
        text = growing_csv.read_text()
        time.sleep(0.002)
        new_text = mutate(text)
        growing_csv.write_text(new_text)
        expected = sum(
            int(line.split(",")[0])
            for line in new_text.splitlines()
            if line.strip()
        )
        assert engine.query("select sum(a1) from t").scalar() == expected
        assert engine.stats.counters.append_extensions == 0
        engine.close()


# ---------------------------------------------------------------------------
# append during a query (pre-read fingerprint branding)
# ---------------------------------------------------------------------------


class TestAppendDuringQuery:
    def test_mid_load_append_observed_by_next_query(self, growing_csv):
        """An append landing between the pre-read fingerprint capture
        and load completion must leave the entry branded with the *pre*
        fingerprint — even when the provision fails after the table was
        created — so the next query detects the growth instead of
        serving the old rows under the new file identity."""
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", growing_csv)
        entry = engine.catalog.get("t")

        real_ensure_table = entry.ensure_table
        boom = RuntimeError("injected failure after ensure_table")

        def ensure_then_append_then_fail(nrows):
            table = real_ensure_table(nrows)
            append_rows(growing_csv, range(500, 520))
            raise boom

        entry.ensure_table = ensure_then_append_then_fail
        with pytest.raises(RuntimeError):
            engine.query("select sum(a1) from t")
        entry.ensure_table = real_ensure_table

        # The failed load branded the (old-bytes) table with the
        # pre-read fingerprint; the append since then must be seen.
        assert engine.query("select count(*) from t").scalar() == 520
        engine.close()

    def test_forged_mtime_append_during_load(self, growing_csv):
        """Same race, adversarial flavor: the mid-load append forges the
        mtime back to the pre-load value.  Size still differs from the
        pre-read fingerprint, so the next query must observe it."""
        engine = NoDBEngine(EngineConfig(policy="column_loads"))
        engine.attach("t", growing_csv)
        entry = engine.catalog.get("t")
        stat = os.stat(growing_csv)

        real_ensure_table = entry.ensure_table

        def ensure_then_append(nrows):
            table = real_ensure_table(nrows)
            with open(growing_csv, "a") as fh:
                fh.write("555,1665,5\n")
            os.utime(growing_csv, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            return table

        entry.ensure_table = ensure_then_append
        engine.query("select sum(a1) from t")
        entry.ensure_table = real_ensure_table

        assert engine.query("select count(*) from t").scalar() == 501
        engine.close()


# ---------------------------------------------------------------------------
# persistence across restarts
# ---------------------------------------------------------------------------


class TestAppendAcrossRestart:
    def test_restart_then_append_extends_persisted_state(self, tmp_path):
        path = tmp_path / "log.csv"
        write_rows(path, range(800))
        store = tmp_path / "store"
        cfg = dict(policy="column_loads", store_dir=store)

        a = NoDBEngine(EngineConfig(**cfg))
        a.attach("t", path)
        a.query("select sum(a1), sum(a2) from t")
        a.flush_persistent_store()
        a.close()

        append_rows(path, range(800, 840))

        b = NoDBEngine(EngineConfig(**cfg))
        b.attach("t", path)
        result = b.query("select sum(a1), sum(a2) from t")
        assert result.rows()[0] == (
            sum(range(840)),
            sum(i * 3 for i in range(840)),
        )
        counters = b.stats.counters
        assert counters.restart_warm_hits == 1
        assert counters.append_extensions == 1
        # The persisted entry was kept, not wiped: the save below writes
        # only the 40 appended rows onto its arrays and commits a new
        # manifest under the grown file's fingerprint.
        assert counters.store_invalidations == 0
        b.flush_persistent_store()
        b.close()

        # Third engine: the extended state persisted under the new
        # fingerprint restores with no raw-file I/O at all.
        c = NoDBEngine(EngineConfig(**cfg))
        c.attach("t", path)
        result = c.query("select sum(a1), sum(a2) from t")
        assert result.rows()[0] == (
            sum(range(840)),
            sum(i * 3 for i in range(840)),
        )
        assert c.stats.counters.restart_warm_hits == 1
        assert result.stats["file_bytes_read"] == 0
        c.close()

    def test_restart_with_rewrite_still_invalidates_store(self, tmp_path):
        path = tmp_path / "log.csv"
        write_rows(path, range(100))
        store = tmp_path / "store"
        cfg = dict(policy="column_loads", store_dir=store)

        a = NoDBEngine(EngineConfig(**cfg))
        a.attach("t", path)
        a.query("select sum(a1) from t")
        a.flush_persistent_store()
        a.close()

        time.sleep(0.002)
        write_rows(path, range(200))  # grew, but head bytes differ? no —
        # range(200) shares the first 100 lines with range(100), so force
        # a real head edit to make this a rewrite, not an append:
        text = path.read_text()
        path.write_text("9" + text[1:])

        b = NoDBEngine(EngineConfig(**cfg))
        b.attach("t", path)
        assert b.query("select count(*) from t").scalar() == 200
        assert b.stats.counters.append_extensions == 0
        assert b.stats.counters.restart_warm_hits == 0
        b.close()
