"""The life of a string column's codes: append, restart, old entries, widening.

A string column is ``(int32 codes, dictionary)`` in memory and a codes
file plus a dictionary file in the persistent store.  These tests pin the
promises that make that form cheap to keep: existing codes never move
(so a tail-append touches only the tail), a restart maps the codes
instead of decoding them, an entry written in the old offsets-and-blob
layout is a miss that the next save rewrites, and a column that turns
into text deep in the file widens to codes like any other.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from repro import EngineConfig, NoDBEngine
from repro.storage.persistent import encode_strings

GROUP = "select s, count(*), sum(v) from t group by s order by s"


def _rows(start: int, stop: int, values) -> list[tuple[int, str, int]]:
    return [(i, values[i % len(values)], i % 7) for i in range(start, stop)]


def _text(rows) -> str:
    return "".join(f"{k},{s},{v}\n" for k, s, v in rows)


def _expected(rows) -> list[tuple]:
    counts = Counter(s for _, s, _ in rows)
    sums: dict[str, int] = {}
    for _, s, v in rows:
        sums[s] = sums.get(s, 0) + v
    return [(s, counts[s], sums[s]) for s in sorted(counts)]


def _answer(engine) -> list[tuple]:
    return [(s, int(c), int(v)) for s, c, v in engine.query(GROUP).rows()]


def _column(engine, name="s"):
    return engine.catalog.get("t").table.columns[name].values


def _entry_dir(store_dir):
    (edir,) = [p for p in store_dir.iterdir() if p.is_dir()]
    return edir


def _manifest(store_dir) -> dict:
    return json.loads((_entry_dir(store_dir) / "manifest.json").read_text())


def _committed_sizes(manifest: dict) -> dict[str, int]:
    """Committed bytes of every array file the manifest names."""
    n, pm = manifest["nrows"], manifest["positional_map"]
    sizes = {pm["file"]: pm["nrows"] * (pm["columns"] + 1) * 8} if pm["file"] else {}
    for col in manifest["columns"].values():
        if "file" in col:
            sizes[col["file"]] = n * 8
        else:
            sizes[col["codes"]] = n * 4
            sizes[col["dictionary"]] = col["dictionary_bytes"]
    return sizes


def _engine(store_dir=None, **config) -> NoDBEngine:
    return NoDBEngine(
        EngineConfig(policy="column_loads", store_dir=store_dir, **config)
    )


@pytest.fixture
def log(tmp_path):
    path = tmp_path / "log.csv"
    rows = _rows(0, 300, ["b", "", "é", "a"])
    path.write_text("k,s,v\n" + _text(rows), encoding="utf-8")
    return path, rows


class TestTailAppend:
    def test_existing_codes_stay_put(self, log):
        """New values arrive at the dictionary's end: the old rows' codes
        are byte-identical after the append, and the answers are right."""
        path, rows = log
        with _engine() as engine:
            engine.attach("t", path)
            assert _answer(engine) == _expected(rows)
            before = np.array(_column(engine).codes).tobytes()
            appended = _rows(300, 340, ["あ", "b", "zz", ""])
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(_text(appended))
            rows = rows + appended
            assert _answer(engine) == _expected(rows)
            assert engine.stats.counters.append_extensions == 1
            column = _column(engine)
            assert np.asarray(column.codes[:300]).tobytes() == before
            assert column.decode().tolist() == [s for _, s, _ in rows]
            assert engine.query("select count(*) from t where s = 'zz'").scalar() == 10

    def test_store_writes_only_the_tail_and_new_entries(self, log, tmp_path):
        """After a tail-append the save writes each array's new rows, the
        codes' 4 bytes a row and only the dictionary's new entries, in
        place (no file replaced)."""
        path, rows = log
        store = tmp_path / "store"
        with _engine(store) as engine:
            engine.attach("t", path)
            engine.query(GROUP)
            engine.flush_persistent_store()
        before = _manifest(store)
        edir = _entry_dir(store)
        inodes = {n: (edir / n).stat().st_ino for n in _committed_sizes(before)}

        appended = _rows(300, 340, ["あ", "b", "zz", ""])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(_text(appended))
        with _engine(store) as engine:
            engine.attach("t", path)
            assert _answer(engine) == _expected(rows + appended)
            assert engine.stats.counters.restart_warm_hits == 1
            engine.flush_persistent_store()
            written = engine.stats.snapshot()["persist_bytes_written"]

        after = _manifest(store)
        s_before, s_after = before["columns"]["s"], after["columns"]["s"]
        assert after["version"] == 6
        assert after["nrows"] == 340
        assert s_after["entries"] == s_before["entries"] + 2  # "あ", "zz"
        grown = {
            name: size - _committed_sizes(before)[name]
            for name, size in _committed_sizes(after).items()
        }
        assert grown[s_after["codes"]] == 40 * 4
        assert grown[s_after["dictionary"]] == len(encode_strings(["あ", "zz"]))
        manifest_bytes = (edir / "manifest.json").stat().st_size
        assert written == sum(grown.values()) + manifest_bytes
        assert {n: (edir / n).stat().st_ino for n in inodes} == inodes


class TestRestart:
    def test_restart_warm_maps_the_codes(self, log, tmp_path):
        path, rows = log
        store = tmp_path / "store"
        with _engine(store) as engine:
            engine.attach("t", path)
            cold = _answer(engine)
            engine.flush_persistent_store()
        with _engine(store) as engine:
            engine.attach("t", path)
            assert _answer(engine) == cold == _expected(rows)
            assert engine.stats.counters.restart_warm_hits == 1
            assert engine.stats.last().file_bytes_read == 0
            assert isinstance(_column(engine).codes.base, np.memmap)
            assert engine.query("select min(s), max(s) from t").rows() == [("", "é")]

    def test_restored_dictionary_counts_against_the_heap_budget(self, tmp_path):
        """The codes are mapped but the dictionary is decoded onto the
        heap: a restored string column is charged to the budget, and a
        budget smaller than its dictionary evicts it."""
        names = [f"customer-{i:05d}-" + "x" * 40 for i in range(2000)]
        rows = [(i, names[i], i % 7) for i in range(2000)]
        path = tmp_path / "wide.csv"
        path.write_text("k,s,v\n" + _text(rows), encoding="ascii")
        store = tmp_path / "store"
        with _engine(store) as engine:
            engine.attach("t", path)
            engine.query("select count(distinct s) from t")
            engine.flush_persistent_store()
        characters = sum(map(len, names))

        with _engine(store) as engine:
            engine.attach("t", path)
            assert engine.query("select count(distinct s) from t").scalar() == 2000
            assert isinstance(_column(engine).codes.base, np.memmap)
            fragment = engine.memory.fragments[("t", "s")]
            assert not fragment.mapped
            assert engine.memory.resident_bytes >= fragment.nbytes > characters

        budget = characters // 2
        with _engine(store, memory_budget_bytes=budget) as engine:
            engine.attach("t", path)
            assert engine.query("select count(distinct s) from t").scalar() == 2000
            assert engine.memory.stats.evictions >= 1
            assert _column(engine) is None
            assert engine.memory.resident_bytes <= budget

    @pytest.mark.parametrize("bad_code", [-1, 4])
    def test_a_code_naming_no_entry_is_a_miss(self, log, tmp_path, bad_code):
        """A damaged codes file (a code past the dictionary's end, or
        negative) is a miss, never an IndexError or a wrong string."""
        path, rows = log
        store = tmp_path / "store"
        with _engine(store) as engine:
            engine.attach("t", path)
            engine.query(GROUP)
            engine.flush_persistent_store()
        entry = _manifest(store)["columns"]["s"]
        assert entry["entries"] == 4
        codes_path = _entry_dir(store) / entry["codes"]
        codes = np.fromfile(codes_path, dtype=np.int32)
        codes[100] = bad_code
        codes.tofile(codes_path)
        with _engine(store) as engine:
            engine.attach("t", path)
            assert _answer(engine) == _expected(rows)
            assert engine.stats.counters.restart_warm_hits == 0

    def test_version_3_entry_is_a_miss_then_rewritten(self, log, tmp_path):
        """An entry in the version-3 layout (a string column as char
        offsets plus a UTF-8 blob) is a miss; the next save rewrites it
        in the current layout and leaves no old-layout file behind."""
        path, rows = log
        store = tmp_path / "store"
        with _engine(store) as engine:
            engine.attach("t", path)
            engine.query(GROUP)
            engine.flush_persistent_store()
        edir = _entry_dir(store)
        manifest = _manifest(store)
        entry = manifest["columns"]["s"]
        for name in (entry.pop("codes"), entry.pop("dictionary")):
            (edir / name).unlink()
        for key in ("entries", "dictionary_bytes", "digest"):
            del entry[key]
        texts = [s for _, s, _ in rows]
        offsets = np.cumsum([0] + [len(t) for t in texts], dtype=np.int64)
        (edir / "col_1.off.bin").write_bytes(offsets.tobytes())
        (edir / "col_1.blob.bin").write_bytes("".join(texts).encode("utf-8"))
        entry.update(
            offsets="col_1.off.bin",
            blob="col_1.blob.bin",
            blob_bytes=len("".join(texts).encode("utf-8")),
        )
        manifest["version"] = 3
        (edir / "manifest.json").write_text(json.dumps(manifest))

        with _engine(store) as engine:
            engine.attach("t", path)
            assert _answer(engine) == _expected(rows)
            assert engine.stats.counters.restart_warm_hits == 0
            engine.flush_persistent_store()
        manifest = _manifest(store)
        assert manifest["version"] == 6
        names = {p.name for p in _entry_dir(store).iterdir()}
        assert names == {"manifest.json", *_committed_sizes(manifest)}
        with _engine(store) as engine:
            engine.attach("t", path)
            assert _answer(engine) == _expected(rows)
            assert engine.stats.counters.restart_warm_hits == 1


@pytest.mark.parametrize(
    "config",
    [
        {"policy": "column_loads"},
        {"policy": "partial_v2"},
    ],
    ids=["column_loads", "partial_v2"],
)
def test_column_widens_to_strings_after_the_sample(tmp_path, config):
    """Integers for well past the 64 KB sniff and 128-row schema sample,
    then letters: the column widens to STRING and its codes hold the
    exact text of every field, zero padding included."""
    rows = [(i, f"{i % 50:03d}", i % 7) for i in range(12_000)]
    rows += [(i, "late" if i % 2 else "007", i % 7) for i in range(12_000, 12_010)]
    path = tmp_path / "late.csv"
    path.write_text("k,s,v\n" + _text(rows), encoding="ascii")
    assert path.stat().st_size > 1 << 16
    with NoDBEngine(EngineConfig(**config)) as engine:
        engine.attach("t", path)
        assert ("s", "int64") in engine.schema_of("t")
        assert _answer(engine) == _expected(rows)
        assert ("s", "str") in engine.schema_of("t")
        assert engine.query("select count(*) from t where s = '007'").scalar() == (
            sum(s == "007" for _, s, _ in rows)
        )
        assert engine.query(
            "select count(*) from t where k > 11990 and s = 'late'"
        ).scalar() == 5
