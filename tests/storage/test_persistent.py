"""Persistent adaptive store: round-trips, staleness, damage tolerance.

Three layers of guarantees are pinned here:

* **Serialization is lossless.**  Hypothesis drives save → load round
  trips of every serialized artifact — positional maps (byte-for-byte
  offset arrays), partition plans, widened schemas, numeric and
  dictionary-coded string columns including non-ASCII — against randomly
  generated state.
* **Staleness is airtight.**  The entry key is the full content-probing
  fingerprint: a same-size in-place rewrite with a forged mtime (the
  nastiest edit the engine's auto-invalidation handles) must invalidate
  the persisted entry too, across a simulated restart, under every
  caching policy.
* **Damage is a miss, never an error.**  Truncated columns, garbage
  manifests and mid-write crash leftovers all restore as a plain cold
  miss.
* **A tail-append persists its tail.**  After an append the store's
  arrays are extended in place — the committed prefix of every array is
  byte-identical to a cold engine's save of the grown file, no array file
  is replaced, and a torn tail left by a crashed save is overwritten,
  never reused.
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.csv_engine import CSVEngine
from repro.config import EngineConfig
from repro.core.engine import NoDBEngine
from repro.faults import FaultPlan, FaultSpec
from repro.flatfile.files import FileFingerprint
from repro.flatfile.positions import PositionalMap
from repro.storage.persistent import (
    PersistedState,
    PersistentStore,
    decode_strings,
    encode_strings,
)
from repro.strings import StringColumn

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _source(tmp_path, text="a,b\n1,x\n2,y\n"):
    f = tmp_path / "data.csv"
    f.write_text(text)
    return f


def _state(source, fingerprint, **overrides):
    base = dict(
        source=source,
        fingerprint=fingerprint,
        nrows=2,
        has_header=True,
        schema=[("a", "int64"), ("b", "str")],
        positional_map=PositionalMap(),
        columns={},
    )
    base.update(overrides)
    return PersistedState(**base)


def _force_stat(path, mtime_ns: int) -> None:
    st_ = os.stat(path)
    os.utime(path, ns=(st_.st_atime_ns, mtime_ns))


# ---------------------------------------------------------------------------
# property: the string codec
# ---------------------------------------------------------------------------


class TestStringCodec:
    """The dictionary file: one UTF-8 record per entry, each ended by a
    0xFF byte."""

    @given(st.lists(st.text(max_size=40), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, texts):
        decoded = decode_strings(encode_strings(texts), len(texts))
        assert decoded.dtype == object
        assert list(decoded) == texts

    def test_non_ascii_records_are_utf8_bytes(self):
        data = encode_strings(["héllo", "日本語", ""])
        assert data == "héllo".encode() + b"\xff" + "日本語".encode() + b"\xff\xff"
        assert list(decode_strings(data, 3)) == ["héllo", "日本語", ""]

    def test_appended_records_decode_as_one_dictionary(self):
        data = encode_strings(["ab"]) + encode_strings(["cd", ""])
        assert list(decode_strings(data, 3)) == ["ab", "cd", ""]

    def test_mismatched_entry_count_rejected(self):
        data = encode_strings(["ab", "cd"])
        with pytest.raises(ValueError):
            decode_strings(data + b"junk", 2)
        with pytest.raises(ValueError):
            decode_strings(data, 3)


# ---------------------------------------------------------------------------
# property: full save/load round trips
# ---------------------------------------------------------------------------

offsets_arrays = st.lists(
    st.integers(min_value=0, max_value=2**40), min_size=1, max_size=50
).map(lambda xs: np.array(sorted(xs), dtype=np.int64))


class TestRoundTrip:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_positional_map_byte_for_byte(self, data, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("pm")
        source = _source(tmp_path)
        fp = FileFingerprint.of(source)
        store = PersistentStore(tmp_path / "store")

        rows = data.draw(offsets_arrays)
        nrows = len(rows)
        pm = PositionalMap()
        pm.record_nrows(nrows)
        ncols = data.draw(st.integers(min_value=0, max_value=4))
        sep = data.draw(st.sampled_from([0, 1]))
        starts = np.resize(data.draw(offsets_arrays), nrows)
        for col in range(ncols):
            ends = starts + data.draw(st.integers(min_value=0, max_value=99))
            pm.record_field_offsets(col, starts, ends, sep=sep)
            starts = ends + sep
        if data.draw(st.booleans()):
            pm.record_text_geometry(1000, 1000)

        store.save(_state(source, fp, nrows=nrows, positional_map=pm))
        restored = store.load(source, fp).state
        assert restored is not None
        rpm = restored.positional_map
        assert rpm.nrows == pm.nrows
        assert rpm.known_columns() == pm.known_columns() == list(range(ncols))
        for col in pm.known_columns():
            s0, e0 = pm.slices_for(col)
            s1, e1 = rpm.slices_for(col)
            assert s1.tobytes() == s0.tobytes()  # byte-for-byte
            assert e1.tobytes() == e0.tobytes()
        assert rpm.text_geometry == pm.text_geometry

    @given(
        names=st.lists(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Ll", "Lu", "Nd"), min_codepoint=48
                ),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=6,
            unique_by=str.lower,
        ),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_widened_schema_and_columns(self, names, data, tmp_path_factory):
        """Schema (including widened types) and column values round-trip;
        numeric columns and string codes come back memmapped."""
        tmp_path = tmp_path_factory.mktemp("cols")
        source = _source(tmp_path)
        fp = FileFingerprint.of(source)
        store = PersistentStore(tmp_path / "store")

        nrows = data.draw(st.integers(min_value=1, max_value=30))
        schema, columns = [], {}
        for name in names:
            dtype = data.draw(st.sampled_from(["int64", "float64", "str"]))
            schema.append((name, dtype))
            if dtype == "int64":
                values = np.array(
                    data.draw(
                        st.lists(
                            st.integers(min_value=-(2**62), max_value=2**62),
                            min_size=nrows,
                            max_size=nrows,
                        )
                    ),
                    dtype=np.int64,
                )
            elif dtype == "float64":
                values = np.array(
                    data.draw(
                        st.lists(
                            st.floats(allow_nan=False, width=64),
                            min_size=nrows,
                            max_size=nrows,
                        )
                    ),
                    dtype=np.float64,
                )
            else:
                values = StringColumn.encode(
                    data.draw(
                        st.lists(
                            st.text(max_size=15), min_size=nrows, max_size=nrows
                        )
                    )
                )
            columns[name] = values

        store.save(
            _state(source, fp, nrows=nrows, schema=schema, columns=columns)
        )
        restored = store.load(source, fp).state
        assert restored.schema == schema
        assert restored.nrows == nrows
        assert sorted(restored.columns) == sorted(columns)
        for name, dtype in schema:
            got = restored.columns[name]
            if dtype == "str":
                assert isinstance(got.codes, np.memmap)
                assert got.decode().tolist() == columns[name].decode().tolist()
            else:
                assert isinstance(got, np.memmap)
                assert not got.flags.writeable
                np.testing.assert_array_equal(np.asarray(got), columns[name])


# ---------------------------------------------------------------------------
# staleness
# ---------------------------------------------------------------------------


class TestStaleness:
    def test_fingerprint_mismatch_invalidates(self, tmp_path):
        source = _source(tmp_path)
        store = PersistentStore(tmp_path / "store")
        fp = FileFingerprint.of(source)
        store.save(_state(source, fp))
        other = FileFingerprint(
            size=fp.size,
            mtime_ns=fp.mtime_ns,
            ino=fp.ino,
            head=b"\x00" * 16,
            tail=b"\x00" * 16,
        )
        outcome = store.load(source, other)
        assert outcome.state is None
        assert outcome.invalidated
        # the stale entry is gone: a re-probe is a plain miss
        again = store.load(source, other)
        assert again.state is None and not again.invalidated

    @pytest.mark.parametrize(
        "policy", ["fullload", "column_loads", "partial_v2", "splitfiles"]
    )
    def test_forged_mtime_same_size_rewrite_across_restart(self, policy, tmp_path):
        """The airtightness bar, under every caching policy: an engine
        loads and persists, then the file is rewritten while no engine
        runs — in place with identical size and the mtime forged back,
        then at a different size.  Each time the persisted entry must be
        discarded and a fresh engine on the same store must answer from
        the new bytes.  A different file attached under the same table
        name must answer with its own rows."""
        store_dir = tmp_path / "store"
        queries = [
            "select count(*), sum(a1), sum(a2) from t",
            "select sum(a2) from t where a1 >= 3 and a1 < 40",
        ]

        def lifetime(path):
            engine = NoDBEngine(EngineConfig(policy=policy, store_dir=store_dir))
            engine.attach("t", path)
            got = [engine.query(q).rows() for q in queries]
            engine.flush_persistent_store()
            engine.close()
            return got, engine.stats.counters

        def oracle(path):
            csv = CSVEngine()
            csv.attach("t", path)
            try:
                return [csv.query(q).rows() for q in queries]
            finally:
                csv.close()

        def write_rows(path, a2_values):
            path.write_text(
                "a1,a2\n" + "".join(f"{i:03d},{v:03d}\n" for i, v in enumerate(a2_values))
            )

        f = tmp_path / "a.csv"
        write_rows(f, range(100))
        got, counters = lifetime(f)
        assert got == oracle(f)
        assert counters.persist_writes >= 1

        # Same size, same inode, mtime forged back: only the content
        # probe can tell the rewrite apart.
        old = os.stat(f)
        with open(f, "r+") as fh:
            fh.seek(len("a1,a2\n"))
            fh.write("".join(f"{i:03d},{999 - i:03d}\n" for i in range(100)))
        _force_stat(f, old.st_mtime_ns)
        st_ = os.stat(f)
        assert (st_.st_size, st_.st_mtime_ns, st_.st_ino) == (
            old.st_size,
            old.st_mtime_ns,
            old.st_ino,
        )
        got, counters = lifetime(f)
        assert got == oracle(f)
        assert counters.restart_warm_hits == 0
        assert counters.store_invalidations >= 1

        # A different size, again with no engine running.
        write_rows(f, [7 * i for i in range(60)])
        got, counters = lifetime(f)
        assert got == oracle(f)
        assert counters.restart_warm_hits == 0

        # A different file under the same table name and the same store.
        g = tmp_path / "b.csv"
        write_rows(g, range(1, 6))
        assert lifetime(g)[0] == oracle(g)

    def test_unchanged_file_restores_restart_warm(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("a1,a2\n" + "\n".join(f"{i},{i * 3}" for i in range(200)))
        store_dir = tmp_path / "store"
        cfg = dict(policy="column_loads", store_dir=store_dir)

        e1 = NoDBEngine(EngineConfig(**cfg))
        e1.attach("t", f)
        expect = e1.query("select sum(a1), sum(a2) from t").rows()
        e1.flush_persistent_store()
        e1.close()

        e2 = NoDBEngine(EngineConfig(**cfg))
        e2.attach("t", f)
        assert e2.query("select sum(a1), sum(a2) from t").rows() == expect
        assert e2.stats.counters.restart_warm_hits == 1
        assert e2.stats.last().file_bytes_read == 0
        assert e2.memory.mapped_bytes > 0  # columns are shared mappings
        e2.close()

    def test_restored_column_copy_on_write(self, tmp_path):
        """Mutating loads on a restored read-only memmap must copy to the
        heap, never ValueError or write through to the store file."""
        f = tmp_path / "a.csv"
        f.write_text("a1\n1\n2\n3\n")
        store_dir = tmp_path / "store"
        e1 = NoDBEngine(EngineConfig(policy="column_loads", store_dir=store_dir))
        e1.attach("t", f)
        e1.query("select sum(a1) from t")
        e1.flush_persistent_store()
        e1.close()

        e2 = NoDBEngine(EngineConfig(policy="column_loads", store_dir=store_dir))
        e2.attach("t", f)
        entry = e2.catalog.get("t")
        e2.query("select sum(a1) from t")
        pc = entry.table.column("a1")
        assert pc.is_mapped
        pc.store(np.array([0]), np.array([99], dtype=np.int64))
        assert not pc.is_mapped  # copied off the mapping
        assert int(pc.values[0]) == 99
        e2.close()
        # the store file still holds the original bytes
        e3 = NoDBEngine(EngineConfig(policy="column_loads", store_dir=store_dir))
        e3.attach("t", f)
        assert int(e3.query("select sum(a1) from t").scalar()) == 6
        e3.close()


# ---------------------------------------------------------------------------
# damage tolerance
# ---------------------------------------------------------------------------


class TestDamage:
    def _saved(self, tmp_path):
        source = _source(tmp_path, "a,b\n1,x\n2,y\n")
        store = PersistentStore(tmp_path / "store")
        fp = FileFingerprint.of(source)
        pm = PositionalMap()
        pm.record_field_offsets(
            0,
            np.array([4, 8], dtype=np.int64),
            np.array([5, 9], dtype=np.int64),
            sep=1,
        )
        store.save(
            _state(
                source,
                fp,
                positional_map=pm,
                columns={
                    "a": np.array([1, 2], dtype=np.int64),
                    "b": StringColumn.encode(["x", "y"]),
                },
            )
        )
        edir = store.entry_dir(source)
        assert store.load(source, fp).state is not None
        return source, store, fp, edir

    def test_truncated_column_is_a_miss(self, tmp_path):
        source, store, fp, edir = self._saved(tmp_path)
        col = next(p for p in edir.iterdir() if p.name.startswith("col_"))
        col.write_bytes(col.read_bytes()[:-1])
        outcome = store.load(source, fp)
        assert outcome.state is None and not outcome.invalidated

    def test_garbage_manifest_is_a_miss(self, tmp_path):
        source, store, fp, edir = self._saved(tmp_path)
        (edir / "manifest.json").write_bytes(b"\x00garbage{{{")
        assert store.load(source, fp).state is None

    def test_missing_posmap_file_is_a_miss(self, tmp_path):
        source, store, fp, edir = self._saved(tmp_path)
        (edir / "pm_b0.bin").unlink()
        assert store.load(source, fp).state is None

    def test_mid_write_crash_leaves_old_entry_or_miss(self, tmp_path):
        """Simulated crash: tmp leftovers plus a missing manifest — the
        reader sees a plain miss; a later save recovers the entry."""
        source, store, fp, edir = self._saved(tmp_path)
        (edir / f".col_9.bin.{os.getpid()}.tmp").write_bytes(b"partial")
        (edir / "manifest.json").unlink()
        assert store.load(source, fp).state is None
        store.save(_state(source, fp, columns={"a": np.array([1, 2])}))
        assert store.load(source, fp).state is not None

    def test_path_tricks_in_manifest_rejected(self, tmp_path):
        source, store, fp, edir = self._saved(tmp_path)
        manifest = json.loads((edir / "manifest.json").read_text())
        manifest["columns"]["a"]["file"] = "../../etc/passwd"
        (edir / "manifest.json").write_text(json.dumps(manifest))
        assert store.load(source, fp).state is None

    def test_clear_and_entries(self, tmp_path):
        source, store, fp, edir = self._saved(tmp_path)
        entries = store.entries()
        assert len(entries) == 1
        assert entries[0]["nrows"] == 2
        assert store.bytes_on_disk() > 0
        assert store.clear() == 1
        assert store.entries() == []
        assert store.load(source, fp).state is None

    @pytest.mark.parametrize(
        "damage",
        [
            lambda m: ["a", "list"],  # valid JSON, wrong shape
            lambda m: {**m, "version": m["version"] + 1},
            lambda m: {k: v for k, v in m.items() if k != "nrows"},
        ],
        ids=["wrong_shape", "other_version", "missing_nrows"],
    )
    def test_malformed_manifest_is_a_miss(self, tmp_path, damage):
        source, store, fp, edir = self._saved(tmp_path)
        manifest = json.loads((edir / "manifest.json").read_text())
        (edir / "manifest.json").write_text(json.dumps(damage(manifest)))
        outcome = store.load(source, fp)
        assert outcome.state is None and not outcome.invalidated

    def test_deleted_column_file_is_a_miss(self, tmp_path):
        source, store, fp, edir = self._saved(tmp_path)
        manifest = json.loads((edir / "manifest.json").read_text())
        (edir / manifest["columns"]["a"]["file"]).unlink()
        assert store.load(source, fp).state is None

    def test_string_dictionary_mismatch_is_a_miss(self, tmp_path):
        """A dictionary whose committed length or bytes disagree with the
        manifest cannot decode: a miss, not a query error or a wrong
        string."""
        source, store, fp, edir = self._saved(tmp_path)
        manifest = json.loads((edir / "manifest.json").read_text())
        manifest["columns"]["b"]["dictionary_bytes"] -= 1
        (edir / "manifest.json").write_text(json.dumps(manifest))
        assert store.load(source, fp).state is None
        manifest["columns"]["b"]["dictionary_bytes"] += 1
        (edir / "manifest.json").write_text(json.dumps(manifest))
        assert store.load(source, fp).state is not None
        dictionary = edir / manifest["columns"]["b"]["dictionary"]
        dictionary.write_bytes(dictionary.read_bytes().replace(b"y", b"z"))
        assert store.load(source, fp).state is None

    def test_save_over_garbage_manifest_recovers(self, tmp_path):
        source, store, fp, edir = self._saved(tmp_path)
        (edir / "manifest.json").write_bytes(b"\xde\xad")
        store.save(_state(source, fp, columns={"a": np.array([1, 2])}))
        restored = store.load(source, fp).state
        assert np.asarray(restored.columns["a"]).tolist() == [1, 2]

    def test_tmp_orphans_beside_a_committed_entry_are_ignored(self, tmp_path):
        """Crash leftovers next to a complete manifest: the entry still
        restores, and invalidation removes the orphans with it."""
        source, store, fp, edir = self._saved(tmp_path)
        (edir / ".col_0.bin.999.tmp").write_bytes(b"\x01\x02")
        (edir / ".manifest.json.999.tmp").write_bytes(b"{half")
        state = store.load(source, fp).state
        assert np.asarray(state.columns["a"]).tolist() == [1, 2]
        assert list(state.columns["b"]) == ["x", "y"]
        assert store.invalidate(source)
        assert not edir.exists()


class TestStore:
    def test_load_without_entry_is_a_plain_miss(self, tmp_path):
        source = _source(tmp_path)
        store = PersistentStore(tmp_path / "store")
        outcome = store.load(source, FileFingerprint.of(source))
        assert outcome.state is None
        assert not outcome.invalidated and not outcome.appended

    def test_invalidate_is_idempotent(self, tmp_path):
        source, store, fp, edir = TestDamage()._saved(tmp_path)
        assert store.invalidate(source)
        assert not edir.exists()
        assert not store.invalidate(source)
        assert store.load(source, fp).state is None

    def test_stats_account_every_byte(self, tmp_path):
        """Bytes written equal the entry's files on disk; a restore reads
        a string column's dictionary onto the heap and its codes once (to
        check each names an entry), and maps numeric columns unread."""
        source, store, fp, edir = TestDamage()._saved(tmp_path)
        on_disk = sum(f.stat().st_size for f in edir.iterdir())
        assert store.stats.bytes_written == on_disk == store.bytes_on_disk()
        assert store.stats.entries_written == 1
        assert store.stats.entries_restored == 1  # the probe in _saved
        # column b only: two 1-byte records with their ends, two codes
        assert store.stats.bytes_read == 2 * (1 + 1) + 2 * 4

    def test_entry_dir_keyed_by_resolved_path(self, tmp_path):
        store = PersistentStore(tmp_path / "store")
        a = _source(tmp_path)
        (tmp_path / "sub").mkdir()
        b = tmp_path / "sub" / a.name
        b.write_text(a.read_text())
        assert store.entry_dir(tmp_path / "sub" / ".." / a.name) == store.entry_dir(a)
        assert store.entry_dir(b) != store.entry_dir(a)  # same name, same bytes

    def test_entry_follows_the_file_not_the_table_name(self, tmp_path):
        """Two files persisted under two table names, then attached under
        each other's name: each restores restart-warm with its own rows."""
        store_dir = tmp_path / "store"
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        a = _source(tmp_path / "x")
        b = _source(tmp_path / "y", "a,b\n5,p\n6,q\n7,r\n")
        query = "select count(*), sum(a) from {}"

        first = NoDBEngine(EngineConfig(policy="fullload", store_dir=store_dir))
        first.attach("t", a)
        first.attach("u", b)
        assert first.query(query.format("t")).rows() == [(2, 3)]
        assert first.query(query.format("u")).rows() == [(3, 18)]
        first.flush_persistent_store()
        first.close()

        swapped = NoDBEngine(EngineConfig(policy="fullload", store_dir=store_dir))
        swapped.attach("t", b)
        swapped.attach("u", a)
        assert swapped.query(query.format("t")).rows() == [(3, 18)]
        assert swapped.query(query.format("u")).rows() == [(2, 3)]
        assert swapped.stats.counters.restart_warm_hits == 2
        assert swapped.stats.counters.store_invalidations == 0
        swapped.close()


# ---------------------------------------------------------------------------
# append-only saves
# ---------------------------------------------------------------------------

#: Loads all three columns of a log row fully: int, maybe-widened, string.
LOG_QUERY = "select sum(a1), sum(a2), min(a3), max(a3), count(*) from t"


def _log_rows(start: int, stop: int, widen: bool = False, salt: int = 3) -> str:
    """Rows ``start..stop`` of a growing log; ``widen`` puts one float in
    the int column ``a2``; ``a3`` is a (sometimes non-ASCII) string."""
    out = []
    for i in range(start, stop):
        a2 = f"{i}.5" if widen and i == stop - 1 else str(i * salt)
        out.append(f"{i},{a2},v{'bcé'[(i * salt) % 3]}{i % (salt + 2)}\n")
    return "".join(out)


def _append(path, text: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)


def _entry_dir(store_dir):
    (edir,) = [p for p in store_dir.iterdir() if p.is_dir()]
    return edir


def _manifest(store_dir) -> dict:
    return json.loads((_entry_dir(store_dir) / "manifest.json").read_text())


def _committed(store_dir) -> dict[str, bytes]:
    """The committed prefix of every array the manifest names."""
    edir = _entry_dir(store_dir)
    m = _manifest(store_dir)
    pm, n = m["positional_map"], m["nrows"]
    sizes = {}
    for name in pm["files"]:
        sizes[name] = pm["nrows"] * 8
    for col in m["columns"].values():
        if "file" in col:
            sizes[col["file"]] = n * 8
        else:
            sizes[col["codes"]] = n * 4
            sizes[col["dictionary"]] = col["dictionary_bytes"]
    out = {}
    for name, size in sizes.items():
        data = (edir / name).read_bytes()
        assert len(data) >= size, f"{name} is shorter than its manifest says"
        out[name] = data[:size]
    return out


def _inodes(store_dir) -> dict[str, int]:
    edir = _entry_dir(store_dir)
    return {name: (edir / name).stat().st_ino for name in _committed(store_dir)}


def _run(path, store_dir, plan: FaultPlan | None = None):
    """One engine lifetime over ``path``: the log query, flushed, closed.
    Returns the answer and the engine's statistics."""
    engine = NoDBEngine(
        EngineConfig(policy="column_loads", store_dir=store_dir, fault_plan=plan)
    )
    engine.attach("t", path)
    rows = engine.query(LOG_QUERY).rows()
    engine.flush_persistent_store()
    engine.close()
    return rows, engine.stats


def _oracle(path):
    oracle = CSVEngine()
    oracle.attach("t", path)
    try:
        return oracle.query(LOG_QUERY).rows()
    finally:
        oracle.close()


class TestAppendOnlySave:
    @given(
        steps=st.lists(
            st.tuples(st.integers(min_value=1, max_value=40), st.booleans()),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_appends_extend_the_cold_save(self, steps, tmp_path_factory):
        """k appends, each followed by a restart and a save: the committed
        prefix of every array equals a cold engine's save of the grown
        file, and a save that kept the schema replaced no array file."""
        tmp_path = tmp_path_factory.mktemp("appends")
        path = tmp_path / "log.csv"
        path.write_text(_log_rows(0, 200), encoding="utf-8")
        store = tmp_path / "store"
        _run(path, store)
        nrows = 200
        for k, (added, widen) in enumerate(steps):
            before, inodes = _manifest(store), _inodes(store)
            _append(path, _log_rows(nrows, nrows + added, widen))
            nrows += added

            rows, stats = _run(path, store)
            assert rows == _oracle(path)
            assert stats.counters.restart_warm_hits == 1
            assert stats.counters.store_invalidations == 0

            cold_store = tmp_path / f"cold{k}"
            _run(path, cold_store)
            after, cold = _manifest(store), _manifest(cold_store)
            assert after["nrows"] == cold["nrows"] == nrows
            assert after["schema"] == cold["schema"]
            assert _committed(store) == _committed(cold_store)
            if after["schema"] == before["schema"]:
                assert {n: _inodes(store)[n] for n in inodes} == inodes
                manifest_bytes = (_entry_dir(store) / "manifest.json").stat().st_size
                tail_bound = added * 8 * len(inodes) + manifest_bytes
                assert stats.snapshot()["persist_bytes_written"] <= tail_bound

    def test_tail_append_save_writes_kilobytes_not_the_entry(self, tmp_path):
        """1 000 rows appended to a 400k-row entry: the save writes about
        the appended rows of each array plus the manifest, in place."""
        path = tmp_path / "log.csv"
        path.write_text("".join(f"{i},{i * 3}\n" for i in range(400_000)))
        store = tmp_path / "store"
        engine = NoDBEngine(EngineConfig(policy="column_loads", store_dir=store))
        engine.attach("t", path)
        engine.query("select sum(a1), sum(a2) from t")
        engine.flush_persistent_store()
        engine.close()
        inodes = _inodes(store)

        _append(path, "".join(f"{i},{i * 3}\n" for i in range(400_000, 401_000)))
        engine = NoDBEngine(EngineConfig(policy="column_loads", store_dir=store))
        engine.attach("t", path)
        assert engine.query("select sum(a1), sum(a2) from t").rows() == [
            (sum(range(401_000)), 3 * sum(range(401_000)))
        ]
        engine.flush_persistent_store()
        written = engine.stats.snapshot()["persist_bytes_written"]
        engine.close()

        manifest_bytes = (_entry_dir(store) / "manifest.json").stat().st_size
        assert 0 < written <= 1_000 * 8 * len(inodes) + manifest_bytes
        assert _inodes(store) == inodes

    def test_commit_fault_keeps_the_old_prefix(self, tmp_path):
        """A save that dies between its tail writes and the manifest swap
        leaves the old entry committed: the next engine restores that
        prefix, extends it over the tail and answers like the oracle."""
        path = tmp_path / "log.csv"
        path.write_text(_log_rows(0, 300), encoding="utf-8")
        store = tmp_path / "store"
        _run(path, store)
        _append(path, _log_rows(300, 360))

        plan = FaultPlan({"persist.commit": FaultSpec(times=1)})
        _, stats = _run(path, store, plan)
        assert plan.fired() == {"persist.commit": 1}
        assert stats.counters.persist_failures == 1
        assert stats.counters.persist_writes == 0
        assert _manifest(store)["nrows"] == 300  # not committed
        col = _entry_dir(store) / _manifest(store)["columns"]["a1"]["file"]
        assert col.stat().st_size == 360 * 8  # the uncommitted tail

        rows, stats = _run(path, store)
        assert rows == _oracle(path)
        assert stats.counters.restart_warm_hits == 1
        assert stats.counters.append_extensions == 1
        assert stats.counters.store_invalidations == 0
        assert _manifest(store)["nrows"] == 360

    def test_append_during_a_slow_save_still_appends_next(self, tmp_path):
        """A tail-append absorbed while a save is still writing: that save
        commits its snapshot's rows, and the save the append scheduled
        extends them in place instead of rewriting the entry."""
        path = tmp_path / "log.csv"
        path.write_text(_log_rows(0, 300), encoding="utf-8")
        store = tmp_path / "store"
        engine = NoDBEngine(EngineConfig(policy="column_loads", store_dir=store))
        persistent = engine.persistent_store
        real_save = persistent.save
        saving, release = threading.Event(), threading.Event()
        saves = []

        def slow_save(state):
            saving.set()
            assert release.wait(10)
            before = persistent.stats.bytes_written
            real_save(state)
            saves.append(
                (state.nrows, persistent.stats.bytes_written - before, _inodes(store))
            )

        persistent.save = slow_save
        engine.attach("t", path)
        engine.query(LOG_QUERY)  # schedules the first save
        assert saving.wait(10)
        _append(path, _log_rows(300, 360))
        assert engine.query(LOG_QUERY).rows() == _oracle(path)
        assert engine.stats.counters.append_extensions == 1
        release.set()
        engine.flush_persistent_store()
        engine.close()

        (first, _, inodes), (grown, written, inodes_after) = saves
        assert (first, grown) == (300, 360)
        manifest_bytes = (_entry_dir(store) / "manifest.json").stat().st_size
        assert written <= 60 * 8 * len(inodes) + manifest_bytes
        assert inodes_after == inodes
        rows, stats = _run(path, store)
        assert rows == _oracle(path)
        assert stats.counters.restart_warm_hits == 1
        assert stats.last().file_bytes_read == 0

    def test_torn_tail_is_overwritten_not_reused(self, tmp_path):
        """A crashed save leaves a torn tail; the file is then cut back and
        grows by *different* rows.  The next save must write those rows
        over the stale bytes, not trust them because the file is long
        enough."""
        path = tmp_path / "log.csv"
        path.write_text(_log_rows(0, 300), encoding="utf-8")
        base = path.read_bytes()
        store = tmp_path / "store"
        _run(path, store)
        _append(path, _log_rows(300, 360))
        _run(path, store, FaultPlan({"persist.commit": FaultSpec(times=1)}))

        path.write_bytes(base)
        _append(path, _log_rows(300, 340, salt=7))
        rows, stats = _run(path, store)
        assert rows == _oracle(path)
        assert stats.counters.store_invalidations == 0

        cold_store = tmp_path / "cold"
        _run(path, cold_store)
        assert _committed(store) == _committed(cold_store)
        rows, stats = _run(path, store)  # restored from the store alone
        assert rows == _oracle(path)
        assert stats.counters.restart_warm_hits == 1
        assert stats.last().file_bytes_read == 0

    @pytest.mark.parametrize("proven", [True, False])
    def test_append_needs_the_manifest_to_match_the_base(self, tmp_path, proven):
        """The store appends only onto the exact state the engine proved it
        extends; any other base wipes and rewrites the entry."""
        source = _source(tmp_path, "a\n1\n2\n")
        store = PersistentStore(tmp_path / "store")
        fp = FileFingerprint.of(source)
        store.save(
            _state(
                source,
                fp,
                schema=[("a", "int64")],
                columns={"a": np.array([1, 2], dtype=np.int64)},
            )
        )
        _append(source, "3\n")
        grown = FileFingerprint.of(source)
        before = store.stats.bytes_written
        other = FileFingerprint(
            size=fp.size, mtime_ns=fp.mtime_ns + 1, ino=fp.ino, head=fp.head, tail=fp.tail
        )
        store.save(
            _state(
                source,
                grown,
                nrows=3,
                schema=[("a", "int64")],
                columns={"a": np.array([1, 2, 3], dtype=np.int64)},
                base=(fp if proven else other, 2),
            )
        )
        manifest = (store.entry_dir(source) / "manifest.json").stat().st_size
        written = store.stats.bytes_written - before - manifest
        assert written == (8 if proven else 24)  # one row, or all three
        restored = store.load(source, grown).state
        assert restored.nrows == 3
        assert np.asarray(restored.columns["a"]).tolist() == [1, 2, 3]

    def test_reader_maps_only_the_committed_prefix(self, tmp_path):
        source, store, fp, edir = TestDamage()._saved(tmp_path)
        for f in edir.glob("*.bin"):
            with open(f, "ab") as fh:
                fh.write(b"\xff" * 24)  # a torn tail
        state = store.load(source, fp).state
        assert state.nrows == 2
        assert np.asarray(state.columns["a"]).tolist() == [1, 2]
        assert list(state.columns["b"]) == ["x", "y"]
        starts, ends = state.positional_map.slices_for(0)
        assert np.asarray(starts).tolist() == [4, 8]
        assert np.asarray(ends).tolist() == [5, 9]


class TestLayout:
    """An entry holds only state a query reads: field spans, schema, zone
    maps and columns — no row-start offsets and no partition plan."""

    def test_cold_save_holds_no_row_offsets_or_partition_plan(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(_log_rows(0, 300))
        store_dir = tmp_path / "store"
        engine = NoDBEngine(
            EngineConfig(
                policy="column_loads",
                store_dir=store_dir,
                parallel_workers=2,
                partition_min_bytes=1024,
            )
        )
        engine.attach("t", path)
        engine.query(LOG_QUERY)
        assert engine.stats.last().parallel_partitions == 2
        engine.flush_persistent_store()
        engine.close()
        names = {p.name for p in _entry_dir(store_dir).iterdir()}
        assert "pm_rows.bin" not in names
        manifest = _manifest(store_dir)
        assert manifest["version"] == 4
        assert "partitions" not in manifest
        assert set(manifest["positional_map"]) == {
            "nrows", "sep", "columns", "text_geometry", "files"
        }
        assert names == {"manifest.json", *_committed(store_dir)}

    def test_one_boundary_file_per_known_column_plus_one(self, tmp_path):
        """Field ends are derived, not stored: columns 0..K known means
        ``pm_b0 .. pm_b<K+1>`` and no end-offset files."""
        path = tmp_path / "log.csv"
        path.write_text(_log_rows(0, 300))
        _run(path, tmp_path / "store")
        pm = _manifest(tmp_path / "store")["positional_map"]
        assert pm["columns"] >= 1 and pm["sep"] == 1
        assert pm["files"] == [f"pm_b{j}.bin" for j in range(pm["columns"] + 1)]
        names = {p.name for p in _entry_dir(tmp_path / "store").iterdir()}
        assert not any(n.startswith(("pm_s", "pm_e")) for n in names)

    def test_version_1_entry_is_a_miss_then_rewritten(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(_log_rows(0, 50))
        store_dir = tmp_path / "store"
        _run(path, store_dir)
        # Dress the entry as the version-1 layout: row offsets on disk
        # and a partition plan in the manifest.
        edir = _entry_dir(store_dir)
        manifest = _manifest(store_dir)
        (edir / "pm_rows.bin").write_bytes(np.arange(50, dtype=np.int64).tobytes())
        manifest["version"] = 1
        manifest["positional_map"]["row_offsets"] = "pm_rows.bin"
        manifest["partitions"] = {
            "requested": 2,
            "file_size": path.stat().st_size,
            "parts": [[0, 0, path.stat().st_size, 0]],
        }
        (edir / "manifest.json").write_text(json.dumps(manifest))

        outcome = PersistentStore(store_dir).load(path, FileFingerprint.of(path))
        assert outcome.state is None and not outcome.invalidated

        rows, stats = _run(path, store_dir)
        assert rows == _oracle(path)
        assert stats.counters.restart_warm_hits == 0
        assert _manifest(store_dir)["version"] == 4
        names = {p.name for p in _entry_dir(store_dir).iterdir()}
        assert names == {"manifest.json", *_committed(store_dir)}

    def test_version_2_entry_is_a_miss_then_rewritten(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(_log_rows(0, 50))
        store_dir = tmp_path / "store"
        _run(path, store_dir)
        # Dress the entry as the version-2 layout: a start and an end
        # offset file per known column.
        edir = _entry_dir(store_dir)
        manifest = _manifest(store_dir)
        pm = manifest["positional_map"]
        columns = {}
        for col in range(pm["columns"]):
            for kind in "se":
                (edir / f"pm_{kind}{col}.bin").write_bytes(
                    np.zeros(pm["nrows"], dtype=np.int64).tobytes()
                )
            columns[str(col)] = {"starts": f"pm_s{col}.bin", "ends": f"pm_e{col}.bin"}
        for name in pm.pop("files"):
            (edir / name).unlink()
        del pm["sep"]
        pm["columns"] = columns
        manifest["version"] = 2
        (edir / "manifest.json").write_text(json.dumps(manifest))

        outcome = PersistentStore(store_dir).load(path, FileFingerprint.of(path))
        assert outcome.state is None and not outcome.invalidated

        rows, stats = _run(path, store_dir)
        assert rows == _oracle(path)
        assert stats.counters.restart_warm_hits == 0
        assert _manifest(store_dir)["version"] == 4
        names = {p.name for p in _entry_dir(store_dir).iterdir()}
        assert names == {"manifest.json", *_committed(store_dir)}
        assert not any(n.startswith(("pm_s", "pm_e")) for n in names)

    def test_restart_replans_partitions(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(_log_rows(0, 300))
        cfg = dict(
            policy="column_loads",
            store_dir=tmp_path / "store",
            parallel_workers=2,
            partition_min_bytes=1024,
        )
        first = NoDBEngine(EngineConfig(**cfg))
        first.attach("t", path)
        first.query("select sum(a1) from t")
        first.flush_persistent_store()
        first.close()

        second = NoDBEngine(EngineConfig(**cfg))
        second.attach("t", path)
        assert second.query("select sum(a1) from t").rows() == [(sum(range(300)),)]
        assert second.stats.counters.restart_warm_hits == 1
        entry = second.catalog.get("t")
        assert entry.partitions is None  # nothing restored a plan
        # The restored map knows every column, so a column load would
        # read only a2's windows: the external policy frames the whole
        # file instead, in parallel over a fresh plan.
        second.set_policy("external")
        sql = "select max(a2), count(*) from t"
        got = second.query(sql).rows()
        assert second.stats.last().parallel_partitions == 2
        assert entry.partitions.file_size == path.stat().st_size
        second.close()
        oracle = CSVEngine()
        oracle.attach("t", path)
        assert got == oracle.query(sql).rows()
        oracle.close()


def _dialect_file(tmp_path, kind: str):
    """A headerless 4-int-column file in one dialect, and its attach args."""
    rows = [[str((i * 37 + j * 11) % 997) for j in range(4)] for i in range(300)]
    if kind == "fixed-width":
        text = "".join("".join(v.ljust(5) for v in r) + "\n" for r in rows)
        args = {"format": "fixed-width", "fixed_widths": (5, 5, 5, 5)}
    else:
        sep, end = {"plain": (",", "\n"), "crlf": (",", "\r\n"), "tsv": ("\t", "\n")}[kind]
        text = "".join(sep.join(r) + end for r in rows)
        args = {"format": "tsv"} if kind == "tsv" else {}
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(text.encode())
    return path, args


class TestRestoredSpans:
    """Spans restored from the store serve a restart with no full scan:
    each field's end, derived from the next boundary, cuts the same
    value the dialect frames (the last field's before ``\\r``, fixed
    widths with no separator)."""

    @pytest.mark.parametrize("kind", ["plain", "crlf", "tsv", "fixed-width"])
    def test_restart_warm_query_on_restored_spans(self, tmp_path, kind):
        path, args = _dialect_file(tmp_path, kind)
        cfg = EngineConfig(policy="partial_v1", store_dir=tmp_path / "store")
        first = NoDBEngine(cfg)
        first.attach("t", path, **args)
        first.query("select sum(a4) from t where a4 > 100")  # learns 0..3
        first.flush_persistent_store()
        first.close()

        oracle = CSVEngine()
        oracle.attach("t", path, **args)
        second = NoDBEngine(cfg)
        try:
            second.attach("t", path, **args)
            for sql in (
                "select sum(a2), count(*) from t where a2 > 300",
                "select min(a4), max(a4), sum(a1) from t where a4 < 500",
            ):
                assert second.query(sql).rows() == oracle.query(sql).rows()
            assert second.stats.counters.restart_warm_hits == 1
            assert second.catalog.get("t").file.stats.full_scans == 0
        finally:
            second.close()
            oracle.close()
