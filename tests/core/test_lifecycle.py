"""Every lifecycle operation from every starting condition, table-driven.

A table's learned state is a cache over its raw file, and
:mod:`repro.core.lifecycle` is the one module that moves it between
conditions.  Each case starts an entry cold (attached, nothing read),
learned (queried until every structure exists: store columns, map, zone
maps, crackers, cached results, split files, a store entry) or restored
(a fresh engine over the learned one's store), runs one operation, and
checks what every structure holds afterwards.
"""

import threading

import pytest

from repro import EngineConfig, NoDBEngine
from repro.flatfile.files import FileFingerprint
from repro.storage.persistent import PersistentStore

ROWS, ADDED = 3000, 100


def _rows(lo, hi):
    return "".join(f"{i},{(i * 37) % 1000},{i % 11}\n" for i in range(lo, hi))


class Case:
    """One engine (replaced by a restart) over one file and its store."""

    def __init__(self, tmp_path):
        self.path = tmp_path / "t.csv"
        self.path.write_text(_rows(0, ROWS))
        self.config = EngineConfig(
            policy="column_loads",
            result_cache=True,
            crack_after=1,
            store_dir=tmp_path / "store",
        )
        self.sizes = {self.path.stat().st_size: "old"}
        self.restart()

    def restart(self):
        if getattr(self, "engine", None) is not None:
            self.engine.close()
        self.engine = NoDBEngine(self.config)
        self.engine.attach("t", self.path)
        self.entry = self.engine.catalog.get("t")

    def prepare(self):
        with self.entry.rwlock.write_locked():
            self.engine.lifecycle.prepare(self.entry)

    def edit(self, text=None):
        """Rewrite the file as ``text``, or append rows to it."""
        if text is None:
            with open(self.path, "a") as fh:
                fh.write(_rows(ROWS, ROWS + ADDED))
        else:
            self.path.write_text(text)
        self.sizes[self.path.stat().st_size] = "new"

    def label(self, fingerprint):
        return None if fingerprint is None else self.sizes[fingerprint.size]

    def observe(self):
        self.engine.flush_persistent_store()
        entry = self.entry
        stored = self.engine.persistent_store.entries()
        base = entry.store_base
        return {
            "table": None if entry.table is None else entry.table.nrows,
            "map": entry.positional_map.nrows,
            "zones": None if entry.zone_maps is None else entry.zone_maps.nrows,
            "crackers": bool(entry.crackers),
            "results": len(self.engine.result_cache) > 0,
            "split": entry.split_catalog is not None,
            "brand": self.label(entry.loaded_fingerprint),
            "store_base": None if base is None else (self.label(base[0]), base[1]),
            "store": [(self.sizes[s["fingerprint_size"]], s["nrows"]) for s in stored],
            "epoch": entry.epoch,
            "generation": entry.generation,
            "detached": entry.detached,
        }


def cold(case):
    pass


def learned(case):
    engine = case.engine
    for lo in (100, 200, 300):  # crack_after=1: each range cracks a2
        engine.query(f"select sum(a1) from t where a2 > {lo} and a2 < {lo + 50}")
    engine.set_policy("splitfiles")
    engine.query("select sum(a3) from t")
    engine.set_policy("column_loads")
    # A save still in flight could land after the operation under test.
    engine.flush_persistent_store()


def restored(case):
    learned(case)
    case.restart()
    case.prepare()


def check_unchanged(case):
    case.prepare()


def check_append(case):
    case.edit()
    case.prepare()


def check_head_edit(case):
    case.edit("9" + case.path.read_text())
    case.prepare()


def restore(case):
    case.restart()
    case.prepare()


def restore_after_append(case):
    case.edit()
    restore(case)


def invalidate(case):
    with case.entry.rwlock.write_locked():
        case.engine.lifecycle.invalidate(case.entry)


def detach(case):
    case.engine.detach("t")


def persist(case):
    brand = case.entry.loaded_fingerprint or FileFingerprint.of(case.path)
    with case.entry.rwlock.write_locked():
        case.engine.lifecycle.schedule_persist(case.entry, brand)


def state(table, brand, store, **extra):
    """What every structure holds: ``table`` rows learned (None: cold),
    the brand's label, the store entry's ``(label, rows)``."""
    full = table is not None
    out = {
        "table": table,
        "map": table,
        "zones": table,
        "crackers": False,
        "results": False,
        "split": False,
        "brand": brand,
        "store_base": store if full else None,
        "store": [store] if store else [],
        "epoch": 0,
        "generation": 0,
        "detached": False,
    }
    out.update(extra)
    return out


COLD = state(None, None, None)
DROPPED = state(None, None, None, epoch=1, generation=1)
LEARNED = state(ROWS, "old", ("old", ROWS), crackers=True, results=True, split=True)
RESTORED = state(ROWS, "old", ("old", ROWS))
EXTENDED = state(ROWS + ADDED, "new", ("new", ROWS + ADDED), generation=1)

EXPECTED = {
    (cold, check_unchanged): COLD,
    (cold, check_append): COLD,
    (cold, check_head_edit): COLD,
    (cold, restore): COLD,
    (cold, restore_after_append): COLD,
    (cold, invalidate): DROPPED,
    (cold, detach): {**DROPPED, "detached": True},
    (cold, persist): COLD,
    (learned, check_unchanged): LEARNED,
    (learned, check_append): EXTENDED,
    (learned, check_head_edit): DROPPED,
    (learned, restore): RESTORED,
    (learned, restore_after_append): EXTENDED,
    (learned, invalidate): DROPPED,
    (learned, detach): {**DROPPED, "detached": True},
    (learned, persist): LEARNED,
    (restored, check_unchanged): RESTORED,
    (restored, check_append): EXTENDED,
    (restored, check_head_edit): DROPPED,
    (restored, restore): RESTORED,
    (restored, restore_after_append): EXTENDED,
    (restored, invalidate): DROPPED,
    (restored, detach): {**DROPPED, "detached": True},
    (restored, persist): RESTORED,
}


@pytest.mark.parametrize(
    "start, operation",
    list(EXPECTED),
    ids=[f"{s.__name__}-{o.__name__}" for s, o in EXPECTED],
)
def test_operation_from_condition(tmp_path, start, operation):
    case = Case(tmp_path)
    try:
        start(case)
        operation(case)
        assert case.observe() == EXPECTED[start, operation]
    finally:
        case.engine.close()


@pytest.mark.parametrize("start", [learned, restored])
def test_extended_state_answers_like_a_cold_engine(tmp_path, start):
    """The extended state serves the grown file, the same as a cold scan."""
    case = Case(tmp_path)
    try:
        start(case)
        check_append(case)
        sql = "select sum(a1), count(*) from t where a2 > 100 and a2 < 900"
        warm = case.engine.query(sql).rows()
        assert case.engine.stats.counters.append_extensions == 1
        with NoDBEngine(EngineConfig(policy="column_loads")) as fresh:
            fresh.attach("t", case.path)
            assert warm == fresh.query(sql).rows()
    finally:
        case.engine.close()


@pytest.mark.parametrize("drop", ["clear_cache", "detach"])
def test_drop_during_a_save_leaves_no_store_entry(tmp_path, monkeypatch, drop):
    """The writer snapshots under the read lock and saves outside it. A
    ``clear_cache`` or ``detach`` landing between the two finds no entry
    to delete, so the writer deletes what it wrote; a save scheduled
    after the drop still lands."""
    path = tmp_path / "t.csv"
    path.write_text(_rows(0, ROWS))
    saving, release = threading.Event(), threading.Event()
    real_save = PersistentStore.save

    def held_save(store, state):
        saving.set()
        assert release.wait(30)
        real_save(store, state)

    monkeypatch.setattr(PersistentStore, "save", held_save)
    with NoDBEngine(EngineConfig(store_dir=tmp_path / "store")) as engine:
        engine.attach("t", path)
        try:
            engine.query("select sum(a1) from t")
            assert saving.wait(30)
            getattr(engine, drop)("t")
        finally:
            release.set()
        engine.flush_persistent_store()
        assert engine.persistent_store.entries() == []
        if drop == "clear_cache":
            engine.query("select sum(a1) from t")
            engine.flush_persistent_store()
            assert len(engine.persistent_store.entries()) == 1
