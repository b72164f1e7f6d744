"""Concurrency primitives for the serving layer.

The engine's concurrency story (replacing the paper section 5.4 "simple
solution" of one global lock) is built from two small primitives:

* :class:`RWLock` — a classic reader–writer lock, one per attached table.
  Queries that can be answered from the adaptive store share the read
  side and proceed fully in parallel; loading (which mutates the table's
  store and positional map) takes the write side.  Writers
  are preferred once waiting, so a stream of warm readers cannot starve
  a cold load forever.
* :class:`SingleFlight` — keyed flight coalescing (shared scans).  When
  N threads miss the store for the same cold (table, column-set), the
  first becomes the *leader* and runs the one adaptive load; the rest
  wait on the flight and then re-probe the store, reusing the freshly
  loaded fragments instead of re-scanning the raw file.

Both are deliberately dependency-free and engine-agnostic so the storage
layer (``TableEntry`` carries the per-table :class:`RWLock`) can use them
without importing ``repro.core``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Hashable, Iterator


class RWLock:
    """A reader–writer lock with writer preference.

    Any number of readers may hold the lock together; a writer holds it
    exclusively.  A waiting writer blocks *new* readers (writer
    preference), so loads cannot be starved by a stream of store hits.
    The lock is not reentrant and not upgradable: release the read side
    before acquiring the write side.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    # ------------------------------------------------------------- readers

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            if self._readers <= 0:
                # Validate BEFORE decrementing: corrupting the count to -1
                # would turn a loud caller bug into a permanently blocked
                # write side.
                raise RuntimeError("release_read without acquire_read")
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # ------------------------------------------------------------- writers

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            if not self._writer:
                raise RuntimeError("release_write without acquire_write")
            self._writer = False
            self._cond.notify_all()

    # ------------------------------------------------------ context managers

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class SingleFlight:
    """Keyed flight coalescing: one leader works, followers wait.

    :meth:`lead_or_wait` returns ``True`` when the caller is the leader
    for ``key`` — it must do the work and then call :meth:`done` (use a
    ``try/finally``).  It returns ``False`` when another thread was
    already leading a flight for the same key: the call blocks until
    that flight finishes, after which the caller should re-check shared
    state (the leader's work is usually enough) instead of repeating
    the work.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[Hashable, threading.Event] = {}

    def lead_or_wait(self, key: Hashable) -> bool:
        with self._lock:
            event = self._flights.get(key)
            if event is None:
                self._flights[key] = threading.Event()
                return True
        event.wait()
        return False

    def done(self, key: Hashable) -> None:
        """End the caller's flight for ``key``, waking every follower."""
        with self._lock:
            event = self._flights.pop(key, None)
        if event is None:
            raise RuntimeError(f"SingleFlight.done({key!r}) without a flight")
        event.set()

    def in_flight(self) -> int:
        """Number of flights currently running (introspection for tests)."""
        with self._lock:
            return len(self._flights)
