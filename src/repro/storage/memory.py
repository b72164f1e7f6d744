"""Adaptive-store memory budget and eviction (paper section 5.1.3).

The paper frames loaded data as disposable: "data parts loaded via adaptive
loading ... may be thrown away at any time.  The only cost is that of
having to reload this data part if it is needed again in the future."

:class:`MemoryManager` enforces a byte budget over registered fragments
(one fragment = one partial column, or one cached query result).  When a
charge would exceed the budget, least-recently-used fragments are dropped
— via the eviction callback their owner registered — until the charge
fits.  A fragment larger than the whole budget is admitted alone and
evicted as soon as anything else needs room; refusing it outright would
make queries unanswerable, which the paper never allows (robustness,
section 5.5).

Thread safety and re-entrancy
-----------------------------

The manager is shared by every table of a concurrently-serving engine, so
all bookkeeping runs under one re-entrant lock.  Eviction callbacks fire
*while the lock is held* and are allowed to re-enter the manager (a
fragment owner's dropper may ``forget`` siblings or ``register`` a
replacement): the re-entrant lock makes the nested call safe, and a
nested ``_enforce`` is deferred to the outermost one — which re-reads
``resident_bytes`` on every loop iteration, so charges added by a
callback are still driven back under budget before the outer call
returns.

Pins are **counted**, not boolean: concurrent queries that pin the same
fragment each hold one pin, and a fragment is evictable only when every
query that pinned it has released its pin.  This is what makes "a query
can always hold its own working set" true under concurrency — one
query's release must not expose a sibling query's working set to
eviction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass
class FragmentInfo:
    """Book-keeping for one evictable fragment."""

    key: tuple[str, str]
    nbytes: int
    last_used: int
    dropper: Callable[[], None]
    pins: int = 0
    #: Backed by an ``np.memmap`` of the persistent store, not the heap:
    #: the pages are shared with every co-located engine mapping the same
    #: entry and reclaimable by the OS, so they are accounted separately
    #: and never count against (or get evicted for) the heap budget —
    #: evicting a mapped column would drop the mapping, not free heap.
    mapped: bool = False

    @property
    def pinned(self) -> bool:
        return self.pins > 0


@dataclass
class MemoryStats:
    """Eviction activity counters."""

    evictions: int = 0
    bytes_evicted: int = 0
    peak_bytes: int = 0
    peak_mapped_bytes: int = 0


@dataclass
class MemoryManager:
    """LRU budget manager over adaptive-store fragments."""

    budget_bytes: int | None = None
    fragments: dict[tuple[str, str], FragmentInfo] = field(default_factory=dict)
    stats: MemoryStats = field(default_factory=MemoryStats)
    _clock: int = 0
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    _enforcing: bool = field(default=False, repr=False, compare=False)

    # ------------------------------------------------------------- charges

    @property
    def resident_bytes(self) -> int:
        """Heap bytes under the budget (mapped pages are not heap)."""
        with self._lock:
            return sum(f.nbytes for f in self.fragments.values() if not f.mapped)

    @property
    def mapped_bytes(self) -> int:
        """Bytes served via ``np.memmap`` of the persistent store."""
        with self._lock:
            return sum(f.nbytes for f in self.fragments.values() if f.mapped)

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def register(
        self,
        key: tuple[str, str],
        nbytes: int,
        dropper: Callable[[], None],
        pinned: bool = False,
        mapped: bool = False,
    ) -> None:
        """Register or resize a fragment and make room for it.

        ``dropper`` is called (under the manager's re-entrant lock) when
        the manager decides to evict the fragment; it must release the
        owner's data so a future query reloads it, and it may safely
        re-enter the manager.

        ``pinned=True`` adds **one** pin that the caller must release via
        :meth:`unpin` (the engine does this when its query's views are
        built); re-registering an already-pinned fragment with
        ``pinned=True`` adds another pin.

        ``mapped=True`` marks the fragment as memmap-backed: its bytes
        are OS page cache shared across processes, so they are tracked
        separately and neither charge the heap budget nor get chosen as
        heap-pressure eviction victims (dropping the mapping would free
        no budgeted heap).  Explicit invalidation still drops mappings
        through the normal :meth:`forget` path.
        """
        with self._lock:
            tick = self._tick()
            existing = self.fragments.get(key)
            if existing is not None:
                existing.nbytes = nbytes
                existing.last_used = tick
                existing.dropper = dropper
                existing.mapped = mapped
                if pinned:
                    existing.pins += 1
            else:
                self.fragments[key] = FragmentInfo(
                    key, nbytes, tick, dropper, pins=1 if pinned else 0, mapped=mapped
                )
            self._enforce(exclude=key)
            self.stats.peak_bytes = max(self.stats.peak_bytes, self.resident_bytes)
            self.stats.peak_mapped_bytes = max(
                self.stats.peak_mapped_bytes, self.mapped_bytes
            )

    def touch(self, key: tuple[str, str]) -> None:
        with self._lock:
            frag = self.fragments.get(key)
            if frag is not None:
                frag.last_used = self._tick()

    def forget(self, key: tuple[str, str]) -> None:
        """Remove book-keeping without calling the dropper (owner dropped)."""
        with self._lock:
            self.fragments.pop(key, None)

    # -------------------------------------------------------------- pinning

    def pin(self, key: tuple[str, str]) -> bool:
        """Add one pin protecting a fragment from eviction.

        The engine pins every fragment the *current* query needs so that
        loading one of the query's columns can never evict another: a query
        must always be able to hold its own working set (robustness, paper
        section 5.5).  Returns True when the fragment exists (and is now
        pinned); the caller owes a matching :meth:`unpin`.
        """
        with self._lock:
            frag = self.fragments.get(key)
            if frag is None:
                return False
            frag.pins += 1
            return True

    def unpin(self, key: tuple[str, str]) -> None:
        """Release one pin (no-op for unknown/unpinned fragments)."""
        with self._lock:
            frag = self.fragments.get(key)
            if frag is not None and frag.pins > 0:
                frag.pins -= 1

    def unpin_many(self, keys: Iterable[tuple[str, str]], enforce: bool = True) -> None:
        """Release one pin per key, then re-check the budget."""
        with self._lock:
            for key in keys:
                frag = self.fragments.get(key)
                if frag is not None and frag.pins > 0:
                    frag.pins -= 1
            if enforce:
                self._enforce()

    def release_pins(self) -> None:
        """Zero every pin and re-enforce the budget.

        Single-threaded escape hatch (and the pre-concurrency API): with
        parallel queries in flight, prefer matched :meth:`pin` /
        :meth:`unpin` pairs — zeroing pins here would expose another
        query's working set.
        """
        with self._lock:
            for frag in self.fragments.values():
                frag.pins = 0
            self._enforce()

    # ------------------------------------------------------------ eviction

    def _enforce(self, exclude: tuple[str, str] | None = None) -> None:
        """Evict until under budget (lock held by caller).

        Re-entrant calls (a dropper registering/forgetting during
        eviction) return immediately; the outermost loop re-reads the
        resident total every iteration and drives any nested additions
        back under budget itself.
        """
        if self.budget_bytes is None:
            return
        if self._enforcing:
            return
        self._enforcing = True
        try:
            # Only heap fragments count against — or are evicted for —
            # the budget: dropping a mapped fragment would release a
            # shared page mapping, not the heap bytes being enforced.
            while (
                sum(f.nbytes for f in self.fragments.values() if not f.mapped)
                > self.budget_bytes
            ):
                victims = [
                    f
                    for f in self.fragments.values()
                    if f.pins == 0 and f.key != exclude and not f.mapped
                ]
                if not victims:
                    # Only the newcomer (or pinned data) remains: admit it
                    # and stop — a query must always hold its own data.
                    break
                victim = min(victims, key=lambda f: f.last_used)
                del self.fragments[victim.key]
                self.stats.evictions += 1
                self.stats.bytes_evicted += victim.nbytes
                victim.dropper()
        finally:
            self._enforcing = False

    def enforce(self) -> None:
        """Re-check the budget (called after pins are released)."""
        with self._lock:
            self._enforce(exclude=None)
