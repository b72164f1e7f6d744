"""Query results as addressable resources.

"Why we should respect analysis results as data": a finished query result
is not an ephemeral response body but a first-class resource — written to
disk under a stable id, retrievable later (and by other clients), paged
on demand, and garbage-collected by TTL and LRU pressure rather than by
the lifetime of one HTTP exchange.

:class:`ResultManager` owns a directory of ``<id>.json`` resources (one
strict-JSON file per result: metadata + the
:meth:`repro.result.QueryResult.to_json_dict` body).  A RAM copy of each
result is kept for fast paging and **charged to the engine's
MemoryManager** like any adaptive-store fragment: under memory pressure
the RAM copy is dropped (the disk resource remains and is reloaded on
the next access), exactly the paper's "throw it away, the only cost is
reloading" lifetime rule.  Expired or LRU-evicted resources disappear
from disk too; a later fetch gets :class:`UnknownResultError` — result
resources are disposable, like the adaptive store itself.

A manager pointed at an existing directory re-indexes the resources it
finds there, so persisted results survive a server restart.
"""

from __future__ import annotations

import json
import secrets
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.errors import UnknownResultError
from repro.faults import FaultPlan
from repro.result import QueryResult
from repro.storage.memory import MemoryManager

#: MemoryManager namespace for result-resource RAM copies; the fragment
#: key is ``(_MEMORY_TABLE, result_id)`` so result charges can never
#: collide with ``(table, column)`` adaptive-store fragments.
_MEMORY_TABLE = "@results"


def result_ram_bytes(result: QueryResult) -> int:
    """Approximate heap footprint of a result's columns."""
    total = 0
    for col in result.columns:
        if col.dtype.kind == "O":
            total += sum(map(len, map(str, col.tolist()))) + 8 * len(col)
        else:
            total += int(col.nbytes)
    return total


@dataclass
class _Entry:
    """In-memory index record of one stored result resource."""

    result_id: str
    meta: dict
    expires_at: float
    last_access: float
    #: RAM copy; ``None`` after a memory-pressure spill (disk remains).
    result: Optional[QueryResult] = None
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


class ResultManager:
    """Directory of paged, TTL/LRU-evicted query-result resources."""

    def __init__(
        self,
        directory: Path | str,
        *,
        memory: MemoryManager | None = None,
        ttl_s: float = 300.0,
        max_results: int = 256,
        clock: Callable[[], float] = time.time,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        if max_results <= 0:
            raise ValueError(f"max_results must be positive, got {max_results}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.memory = memory
        self.ttl_s = ttl_s
        self.max_results = max_results
        self._clock = clock
        self.fault_plan = fault_plan
        self._lock = threading.Lock()
        self._entries: dict[str, _Entry] = {}
        #: Leaf lock for counters bumped from MemoryManager droppers
        #: (which run under the manager's lock; taking ``self._lock``
        #: there would invert the ``self._lock -> memory`` order).
        self._counter_lock = threading.Lock()
        self.stored = 0
        self.expired = 0
        self.lru_evicted = 0
        self.ram_spills = 0
        self.disk_reloads = 0
        self.write_failures = 0
        self.unlink_failures = 0
        self._reindex()

    # ------------------------------------------------------------- layout

    def _path(self, result_id: str) -> Path:
        return self.directory / f"{result_id}.json"

    def _reindex(self) -> None:
        """Adopt resources an earlier server left in the directory."""
        now = self._clock()
        for path in sorted(self.directory.glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                meta = payload["meta"]
                result_id = meta["result_id"]
            except (OSError, ValueError, KeyError, TypeError):
                continue  # damaged resource: ignore, never crash startup
            if meta.get("expires_at", 0) <= now:
                path.unlink(missing_ok=True)
                continue
            self._entries[result_id] = _Entry(
                result_id=result_id,
                meta=meta,
                expires_at=float(meta["expires_at"]),
                last_access=now,
            )

    # -------------------------------------------------------------- store

    def store(self, result: QueryResult, page_size: int) -> dict:
        """Persist a finished result as a resource; return its metadata."""
        result_id = secrets.token_hex(8)
        now = self._clock()
        expires_at = now + self.ttl_s
        encoded = result.to_json_dict()  # the one full-result encoding
        meta = {
            "result_id": result_id,
            "num_rows": result.num_rows,
            "num_columns": result.num_columns,
            "names": list(result.names),
            "dtypes": encoded["dtypes"],
            "page_size": page_size,
            "num_pages": result.num_pages(page_size),
            "created_at": now,
            "expires_at": expires_at,
        }
        body = json.dumps({"meta": meta, "result": encoded}, allow_nan=False)
        path = self._path(result_id)
        tmp = path.with_suffix(".tmp")
        try:
            if self.fault_plan is not None:
                self.fault_plan.check("results.write")
            tmp.write_text(body, encoding="utf-8")
            tmp.replace(path)
        except OSError:
            # Full or broken result disk degrades the resource to
            # RAM-only: the client still gets its result id and pages;
            # it just won't survive a memory-pressure spill or restart.
            with suppress(OSError):
                tmp.unlink(missing_ok=True)
            with self._counter_lock:
                self.write_failures += 1
        entry = _Entry(
            result_id=result_id,
            meta=meta,
            expires_at=expires_at,
            last_access=now,
            result=result,
        )
        nbytes = result_ram_bytes(result)  # O(rows) for strings: not under the lock
        with self._lock:
            self._entries[result_id] = entry
            self.stored += 1
            self._charge_ram(entry, nbytes)
            self._purge_locked(now)
        return dict(meta)

    def _charge_ram(self, entry: _Entry, nbytes: int) -> None:
        if self.memory is None:
            return

        def spill(entry=entry):
            # Runs under the MemoryManager lock: touch only the entry
            # (GIL-atomic attribute store) and a leaf counter lock.
            entry.result = None
            with self._counter_lock:
                self.ram_spills += 1

        self.memory.register((_MEMORY_TABLE, entry.result_id), nbytes, spill)

    # -------------------------------------------------------------- fetch

    def _live_entry(self, result_id: str, now: float) -> _Entry:
        """Look up a non-expired entry (lock held by caller)."""
        entry = self._entries.get(result_id)
        if entry is not None and entry.expires_at <= now:
            self._drop_locked(entry, counter="expired")
            entry = None
        if entry is None:
            raise UnknownResultError(
                f"no stored result {result_id!r} (unknown, expired or evicted)"
            )
        entry.last_access = now
        return entry

    def _lookup(self, result_id: str) -> _Entry:
        """The one index access of a fetch: purge, then find the entry."""
        now = self._clock()
        with self._lock:
            self._purge_locked(now)
            return self._live_entry(result_id, now)

    def _resident(self, entry: _Entry) -> QueryResult:
        """The entry's RAM copy, reloaded from its resource file if spilled."""
        with entry.lock:  # one reload even under concurrent page fetches
            result = entry.result
            if result is None:
                result = self._reload(entry)
        if self.memory is not None:
            self.memory.touch((_MEMORY_TABLE, entry.result_id))
        return result

    def meta(self, result_id: str) -> dict:
        """Metadata of a stored result (404-shaped error when gone)."""
        return dict(self._lookup(result_id).meta)

    def get(self, result_id: str) -> QueryResult:
        """The full result — RAM copy, or reloaded from its resource file."""
        return self._resident(self._lookup(result_id))

    def page(self, result_id: str, n: int) -> tuple[dict, QueryResult]:
        """Page ``n`` of a stored result (array slices, no copy), with
        its metadata."""
        entry = self._lookup(result_id)
        try:
            page = self._resident(entry).page(n, int(entry.meta["page_size"]))
        except IndexError as exc:
            raise UnknownResultError(str(exc)) from None
        return dict(entry.meta), page

    def _reload(self, entry: _Entry) -> QueryResult:
        """Re-read a spilled result from disk and re-charge its RAM copy."""
        try:
            if self.fault_plan is not None:
                self.fault_plan.check("results.read")
            payload = json.loads(self._path(entry.result_id).read_text(encoding="utf-8"))
            result = QueryResult.from_json_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            raise UnknownResultError(
                f"stored result {entry.result_id!r} is gone or damaged"
            ) from None
        entry.result = result
        with self._counter_lock:
            self.disk_reloads += 1
        nbytes = result_ram_bytes(result)
        with self._lock:
            self._charge_ram(entry, nbytes)
        return result

    # ----------------------------------------------------------- lifecycle

    def delete(self, result_id: str) -> None:
        """Explicitly drop a resource (404-shaped error when gone)."""
        now = self._clock()
        with self._lock:
            entry = self._live_entry(result_id, now)
            self._drop_locked(entry)

    def purge(self) -> None:
        """Drop expired resources and enforce the LRU cap."""
        with self._lock:
            self._purge_locked(self._clock())

    def _purge_locked(self, now: float) -> None:
        for entry in [e for e in self._entries.values() if e.expires_at <= now]:
            self._drop_locked(entry, counter="expired")
        while len(self._entries) > self.max_results:
            victim = min(self._entries.values(), key=lambda e: e.last_access)
            self._drop_locked(victim, counter="lru_evicted")

    def _drop_locked(self, entry: _Entry, counter: str | None = None) -> None:
        self._entries.pop(entry.result_id, None)
        entry.result = None
        if self.memory is not None:
            self.memory.forget((_MEMORY_TABLE, entry.result_id))
        try:
            if self.fault_plan is not None:
                self.fault_plan.check("results.unlink")
            self._path(entry.result_id).unlink(missing_ok=True)
        except OSError:
            # A failed unlink must not wedge GC: the index entry is
            # already gone, so the resource is unreachable either way;
            # the orphan file is retried by a later reindex/expiry pass.
            with self._counter_lock:
                self.unlink_failures += 1
        if counter is not None:
            setattr(self, counter, getattr(self, counter) + 1)

    def clear(self) -> int:
        """Drop everything; returns how many resources were removed."""
        with self._lock:
            entries = list(self._entries.values())
            for entry in entries:
                self._drop_locked(entry)
            return len(entries)

    def snapshot(self) -> dict:
        """JSON-safe counters for the ``/stats`` endpoint."""
        with self._lock:
            held = len(self._entries)
            ram_resident = sum(1 for e in self._entries.values() if e.result is not None)
        with self._counter_lock:
            spills, reloads = self.ram_spills, self.disk_reloads
            write_failures = self.write_failures
            unlink_failures = self.unlink_failures
        return {
            "results_held": held,
            "results_ram_resident": ram_resident,
            "stored": self.stored,
            "expired": self.expired,
            "lru_evicted": self.lru_evicted,
            "ram_spills": spills,
            "disk_reloads": reloads,
            "write_failures": write_failures,
            "unlink_failures": unlink_failures,
        }


__all__ = ["ResultManager", "result_ram_bytes"]
