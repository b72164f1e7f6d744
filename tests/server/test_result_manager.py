"""Unit tests for the result-resource store: TTL, LRU, spill, restart."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import UnknownResultError
from repro.result import QueryResult
from repro.server import results as results_module
from repro.server.results import ResultManager, result_ram_bytes
from repro.storage.memory import MemoryManager


def make_result(nrows: int = 10, seed: int = 0) -> QueryResult:
    rng = np.random.default_rng(seed)
    return QueryResult(
        ["a", "b"],
        [rng.integers(0, 100, nrows), rng.random(nrows)],
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def manager(tmp_path, clock):
    return ResultManager(tmp_path, ttl_s=60.0, max_results=4, clock=clock)


def test_store_then_fetch_roundtrips_exactly(manager):
    result = make_result(25)
    meta = manager.store(result, page_size=10)
    assert meta["num_rows"] == 25
    assert meta["num_pages"] == 3
    assert manager.meta(meta["result_id"])["names"] == ["a", "b"]
    fetched = manager.get(meta["result_id"])
    assert fetched.rows() == result.rows()
    _, page = manager.page(meta["result_id"], 2)
    assert page.num_rows == 5


def test_store_encodes_the_result_exactly_once(manager, monkeypatch, tmp_path):
    calls = []
    encode = QueryResult.to_json_dict
    monkeypatch.setattr(
        QueryResult, "to_json_dict", lambda self: calls.append(self) or encode(self)
    )
    result = make_result(25)
    meta = manager.store(result, page_size=10)
    assert calls == [result]
    assert meta["dtypes"] == ["int64", "float64"]
    on_disk = json.loads((tmp_path / f"{meta['result_id']}.json").read_text())
    assert on_disk == {"meta": meta, "result": encode(result)}


def test_a_page_fetch_is_one_index_lookup(manager, monkeypatch):
    meta = manager.store(make_result(25), page_size=10)
    purges = []
    purge = manager._purge_locked
    monkeypatch.setattr(manager, "_purge_locked", lambda now: purges.append(now) or purge(now))
    got_meta, page = manager.page(meta["result_id"], 1)
    assert len(purges) == 1
    assert got_meta == meta and page.num_rows == 10
    # A page is a window on the stored arrays, not a copy of them.
    assert page.columns[0].base is not None


def test_results_are_sized_outside_the_index_lock(tmp_path, clock, monkeypatch):
    words = QueryResult(["s"], [np.array(["ab", "cde", ""], dtype=object)])
    assert result_ram_bytes(words) == 5 + 8 * 3
    memory = MemoryManager(budget_bytes=result_ram_bytes(words) + 8)  # room for one
    manager = ResultManager(tmp_path, memory=memory, ttl_s=60.0, clock=clock)
    held = []

    def sizing(result):
        held.append(manager._lock.locked())
        return result_ram_bytes(result)

    monkeypatch.setattr(results_module, "result_ram_bytes", sizing)
    first = manager.store(words, page_size=10)["result_id"]
    manager.store(words, page_size=10)  # spills the first's RAM copy
    assert manager.get(first).rows() == words.rows()
    assert manager.snapshot()["disk_reloads"] == 1
    assert held == [False, False, False]  # two stores, one reload


def test_ttl_expiry_drops_the_resource_and_its_file(manager, clock, tmp_path):
    meta = manager.store(make_result(), page_size=10)
    path = tmp_path / f"{meta['result_id']}.json"
    assert path.exists()
    clock.now += 61.0
    with pytest.raises(UnknownResultError):
        manager.meta(meta["result_id"])
    assert not path.exists()
    assert manager.snapshot()["expired"] == 1


def test_lru_eviction_beyond_max_results(manager, clock):
    ids = []
    for i in range(5):
        clock.now += 1.0
        ids.append(manager.store(make_result(seed=i), page_size=10)["result_id"])
    # max_results=4: the oldest (least recently accessed) id is gone.
    assert manager.snapshot()["results_held"] == 4
    with pytest.raises(UnknownResultError):
        manager.get(ids[0])
    assert manager.snapshot()["lru_evicted"] == 1
    for result_id in ids[1:]:
        manager.meta(result_id)


def test_recent_access_protects_against_lru(manager, clock):
    ids = [
        manager.store(make_result(seed=i), page_size=10)["result_id"]
        for i in range(4)
    ]
    clock.now += 1.0
    manager.get(ids[0])  # refresh the would-be victim
    clock.now += 1.0
    manager.store(make_result(seed=9), page_size=10)
    with pytest.raises(UnknownResultError):
        manager.meta(ids[1])
    manager.meta(ids[0])


def test_delete_is_explicit_and_final(manager, tmp_path):
    meta = manager.store(make_result(), page_size=10)
    manager.delete(meta["result_id"])
    assert not (tmp_path / f"{meta['result_id']}.json").exists()
    with pytest.raises(UnknownResultError):
        manager.delete(meta["result_id"])


def test_restart_reindexes_surviving_resources(tmp_path, clock):
    first = ResultManager(tmp_path, ttl_s=60.0, clock=clock)
    keep = first.store(make_result(30, seed=1), page_size=8)
    doomed = first.store(make_result(seed=2), page_size=8)
    # Make one resource expire and one file damaged before the "restart".
    data = json.loads((tmp_path / f"{doomed['result_id']}.json").read_text())
    data["meta"]["expires_at"] = clock.now - 1
    (tmp_path / f"{doomed['result_id']}.json").write_text(json.dumps(data))
    (tmp_path / "garbage.json").write_text("{not json")

    second = ResultManager(tmp_path, ttl_s=60.0, clock=clock)
    second.purge()
    assert second.snapshot()["results_held"] == 1
    assert second.get(keep["result_id"]).num_rows == 30
    assert not (tmp_path / f"{doomed['result_id']}.json").exists()


def test_memory_pressure_spills_ram_copy_but_keeps_the_resource(tmp_path, clock):
    result = make_result(1000)
    budget = result_ram_bytes(result) + 512  # room for ~one result's columns
    memory = MemoryManager(budget_bytes=budget)
    manager = ResultManager(tmp_path, memory=memory, ttl_s=60.0, clock=clock)
    first = manager.store(result, page_size=100)["result_id"]
    manager.store(make_result(1000, seed=7), page_size=100)  # evicts first's RAM
    snap = manager.snapshot()
    assert snap["ram_spills"] >= 1
    assert snap["results_ram_resident"] < snap["results_held"]
    # The disk resource survives the spill: the next access reloads it.
    assert manager.get(first).rows() == result.rows()
    assert manager.snapshot()["disk_reloads"] == 1
    assert memory.resident_bytes <= budget


def test_clear_empties_directory(manager, tmp_path):
    for i in range(3):
        manager.store(make_result(seed=i), page_size=10)
    assert manager.clear() == 3
    assert manager.snapshot()["results_held"] == 0
    assert list(tmp_path.glob("*.json")) == []


def test_validates_configuration(tmp_path):
    with pytest.raises(ValueError):
        ResultManager(tmp_path, ttl_s=0)
    with pytest.raises(ValueError):
        ResultManager(tmp_path, max_results=0)
