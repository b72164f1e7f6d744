"""Tests for the adaptive-store memory budget and eviction."""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.storage.memory import MemoryManager


class Fragment:
    """Test double that records whether it was dropped."""

    def __init__(self):
        self.dropped = False

    def drop(self):
        self.dropped = True


def test_unbounded_never_evicts():
    m = MemoryManager(budget_bytes=None)
    frags = [Fragment() for _ in range(5)]
    for i, f in enumerate(frags):
        m.register(("t", f"c{i}"), 10**9, f.drop)
    assert not any(f.dropped for f in frags)
    assert m.stats.evictions == 0


def test_lru_evicts_least_recently_used():
    m = MemoryManager(budget_bytes=100)
    a, b, c = Fragment(), Fragment(), Fragment()
    m.register(("t", "a"), 40, a.drop)
    m.register(("t", "b"), 40, b.drop)
    m.touch(("t", "a"))  # b is now least recently used
    m.register(("t", "c"), 40, c.drop)
    assert b.dropped
    assert not a.dropped and not c.dropped
    assert m.stats.evictions == 1
    assert m.stats.bytes_evicted == 40


def test_lru_resize_refreshes_recency():
    m = MemoryManager(budget_bytes=100)
    a, b, c = Fragment(), Fragment(), Fragment()
    m.register(("t", "a"), 30, a.drop)
    m.register(("t", "b"), 40, b.drop)
    m.register(("t", "a"), 40, a.drop)  # a re-used: most recent now
    m.register(("t", "c"), 40, c.drop)
    assert b.dropped
    assert not a.dropped and not c.dropped


def test_oversized_fragment_admitted_alone():
    m = MemoryManager(budget_bytes=100)
    big = Fragment()
    m.register(("t", "big"), 500, big.drop)
    assert not big.dropped
    assert m.resident_bytes == 500
    # The next registration pushes it out.
    small = Fragment()
    m.register(("t", "small"), 10, small.drop)
    assert big.dropped
    assert not small.dropped


def test_pinned_fragments_survive():
    m = MemoryManager(budget_bytes=100)
    pinned, other = Fragment(), Fragment()
    m.register(("t", "p"), 80, pinned.drop, pinned=True)
    m.register(("t", "o"), 80, other.drop)
    assert not pinned.dropped
    assert other.dropped or m.resident_bytes > 100  # other was the only victim


def test_resize_existing_fragment():
    m = MemoryManager(budget_bytes=100)
    a = Fragment()
    m.register(("t", "a"), 10, a.drop)
    m.register(("t", "a"), 60, a.drop)
    assert m.resident_bytes == 60
    assert len(m.fragments) == 1


def test_forget_removes_without_dropping():
    m = MemoryManager(budget_bytes=100)
    a = Fragment()
    m.register(("t", "a"), 50, a.drop)
    m.forget(("t", "a"))
    assert not a.dropped
    assert m.resident_bytes == 0


def test_eviction_cascades_until_fit():
    m = MemoryManager(budget_bytes=100)
    frags = [Fragment() for _ in range(4)]
    for i, f in enumerate(frags):
        m.register(("t", f"c{i}"), 30, f.drop)
    # 4 x 30 = 120 > 100: the first registered fragment was evicted.
    assert frags[0].dropped
    assert m.resident_bytes == 90


def test_peak_bytes_tracked():
    m = MemoryManager(budget_bytes=None)
    m.register(("t", "a"), 70, lambda: None)
    m.register(("t", "b"), 50, lambda: None)
    assert m.stats.peak_bytes == 120


# ---------------------------------------------------------------------------
# counted pins (concurrent queries share fragments)
# ---------------------------------------------------------------------------


def test_pins_are_counted_not_boolean():
    """Two queries pin one fragment; the first unpin must not expose it."""
    m = MemoryManager(budget_bytes=100)
    shared = Fragment()
    m.register(("t", "s"), 80, shared.drop)
    assert m.pin(("t", "s"))
    assert m.pin(("t", "s"))  # a second query pins the same fragment
    m.unpin_many([("t", "s")])  # first query finishes
    other = Fragment()
    m.register(("t", "o"), 80, other.drop)
    assert not shared.dropped  # still pinned by the second query
    m.unpin_many([("t", "s")])  # second query finishes: now evictable
    m.register(("t", "x"), 80, Fragment().drop)
    assert shared.dropped or other.dropped


def test_pin_missing_fragment_returns_false():
    m = MemoryManager(budget_bytes=100)
    assert not m.pin(("t", "ghost"))
    m.unpin(("t", "ghost"))  # no-op, no error


def test_release_pins_zeroes_counts():
    m = MemoryManager(budget_bytes=100)
    m.register(("t", "a"), 80, Fragment().drop, pinned=True)
    m.pin(("t", "a"))
    m.release_pins()
    assert m.fragments[("t", "a")].pins == 0


# ---------------------------------------------------------------------------
# re-entrancy + thread safety (eviction callbacks re-enter the manager)
# ---------------------------------------------------------------------------


def test_dropper_may_reenter_register():
    """A fragment owner whose dropper immediately re-registers a smaller
    replacement (fragment resize on eviction) must not deadlock or
    corrupt the books — and the budget must still be enforced."""
    m = MemoryManager(budget_bytes=100)

    def reentrant_dropper():
        m.register(("t", "replacement"), 10, lambda: None)

    m.register(("t", "a"), 90, reentrant_dropper)
    m.register(("t", "b"), 90, lambda: None)  # evicts a -> registers replacement
    assert ("t", "replacement") in m.fragments
    assert m.resident_bytes <= 100


def test_dropper_may_reenter_forget():
    """A dropper forgetting a sibling fragment mid-eviction is safe."""
    m = MemoryManager(budget_bytes=100)

    def dropper_forgets_sibling():
        m.forget(("t", "sibling"))

    m.register(("t", "a"), 60, dropper_forgets_sibling)
    m.register(("t", "sibling"), 30, lambda: None)
    m.register(("t", "b"), 90, lambda: None)  # evicts a; a forgets sibling
    assert ("t", "a") not in m.fragments
    assert ("t", "sibling") not in m.fragments
    assert m.resident_bytes <= 100


def test_evict_from_callback_under_two_threads():
    """Regression: eviction callbacks re-entering ``register`` while two
    threads charge concurrently must neither deadlock nor lose the
    budget invariant."""
    m = MemoryManager(budget_bytes=1000)
    barrier = threading.Barrier(2)
    errors: list[Exception] = []

    def make_dropper(tid: int, i: int):
        def dropper():
            # Re-enter the manager from the eviction callback.
            m.register((f"cb{tid}", f"r{i}"), 5, lambda: None)

        return dropper

    def charger(tid: int):
        try:
            barrier.wait()
            for i in range(200):
                m.register((f"t{tid}", f"c{i}"), 60, make_dropper(tid, i))
                m.touch((f"t{tid}", f"c{i % 10}"))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(charger, range(2)))
    assert not errors, errors[0]
    # Budget enforced within one largest-fragment slack of the cap.
    assert m.resident_bytes <= 1000
    assert m.stats.evictions > 0


def test_concurrent_pin_unpin_register_consistent():
    """Hammer pins/unpins/registers from 4 threads; books stay sane."""
    m = MemoryManager(budget_bytes=5000)
    keys = [("t", f"c{i}") for i in range(16)]
    for key in keys:
        m.register(key, 100, lambda: None)
    barrier = threading.Barrier(4)

    def worker(tid: int):
        barrier.wait()
        for i in range(300):
            key = keys[(tid + i) % len(keys)]
            if m.pin(key):
                m.touch(key)
                m.unpin(key)
            m.register(key, 100 + (i % 3), lambda: None)

    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(worker, range(4)))
    for key in keys:
        frag = m.fragments.get(key)
        assert frag is None or frag.pins == 0
    assert m.resident_bytes <= 5000
