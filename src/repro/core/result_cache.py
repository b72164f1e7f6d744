"""Query-result caching: finished results as first-class, reusable data.

"Here are my queries — where are my results?"  Once a query has been
answered, the answer itself is the most valuable artifact the engine
holds: serving it again costs nothing but a staleness check.  The
:class:`QueryResultCache` stores completed :class:`~repro.result.QueryResult`
objects keyed by the *normalized* query (the parsed statement, so
whitespace/keyword-case variants share one entry) together with a
signature of every referenced flat file.

Staleness is the whole design problem.  A cached result is only
servable while every underlying file is byte-identical to the one the
result was computed from.  The signature is exactly the engine's
:class:`~repro.flatfile.files.FileFingerprint` — size + mtime_ns +
inode + a bounded head/tail content probe — **deliberately the same
mechanism, at the same strength, as the adaptive store's staleness
check**: were the cache's identity stronger than the store's, a
same-size same-mtime rewrite could leave the store serving stale
fragments whose (stale) results the cache would then re-key under the
fresh signature, poisoning it permanently.

Cached bytes are charged to the engine's :class:`~repro.storage.memory.
MemoryManager` budget, so results compete with adaptive-store fragments
under the same eviction policy, and the cache is also bounded by entry
count (``EngineConfig.max_cached_results``).  Invalidation rides the
same path that drops positional maps: :mod:`repro.core.lifecycle` calls
:meth:`invalidate_table` on every invalidation and tail-append.

Lock ordering: the memory manager may call this cache's dropper while
holding its own lock, so the cache NEVER calls into the memory manager
while holding the cache lock — every register/touch/forget happens after
the critical section.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.flatfile.files import FileFingerprint
from repro.result import QueryResult
from repro.storage.memory import MemoryManager

#: The cache keys on the engine's own file identity (see module
#: docstring for why the strengths must match); the alias keeps the
#: cache-facing name descriptive.
FileSignature = FileFingerprint

#: Namespace used for result-cache charges in the MemoryManager, chosen
#: so it can never collide with a (table, column) fragment key.
_MEMORY_NAMESPACE = "::result-cache::"


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters (all guarded by the cache lock)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    evictions: int = 0


@dataclass
class _Entry:
    result: QueryResult
    signatures: tuple[tuple[str, FileSignature], ...]
    nbytes: int


def result_nbytes(result: QueryResult) -> int:
    """Budget-accounted size of one cached result."""
    total = 0
    for column in result.columns:
        if column.dtype == object:
            total += sum(len(str(v)) + 49 for v in column)  # CPython str overhead
        else:
            total += column.nbytes
    return total + 256  # key + bookkeeping overhead


class QueryResultCache:
    """Thread-safe LRU cache of completed query results.

    Parameters
    ----------
    memory:
        The engine's memory manager; every stored result is registered
        there so cached bytes count against (and are evictable under)
        the adaptive-store budget.  ``None`` disables budget accounting.
    max_entries:
        Hard cap on cached results; the least recently used entry is
        dropped when the cap is exceeded.
    """

    def __init__(self, memory: MemoryManager | None = None, max_entries: int = 256):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._memory = memory
        self._max_entries = max_entries
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: table key (lower-cased) -> cache keys referencing that table
        self._by_table: dict[str, set[str]] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -------------------------------------------------------------- keying

    @staticmethod
    def key_for(normalized_query: str, table_keys: list[str]) -> str:
        """Cache key: normalized statement + the tables it touches."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(normalized_query.encode("utf-8"))
        for key in sorted(table_keys):
            digest.update(b"\x00")
            digest.update(key.encode("utf-8"))
        return digest.hexdigest()

    # -------------------------------------------------------------- lookup

    def lookup(
        self, key: str, current: dict[str, FileSignature]
    ) -> QueryResult | None:
        """Return the cached result for ``key`` if every file signature
        still matches ``current``; drop the entry and miss otherwise."""
        hit: QueryResult | None = None
        forget = False
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if all(
                current.get(table_key) == signature
                for table_key, signature in entry.signatures
            ):
                self._entries.move_to_end(key)
                self.stats.hits += 1
                # Read-only views of the cached (read-only) arrays: a
                # caller mutating a served result must fail loudly, not
                # poison every future hit.  Fresh stats dict per caller
                # (the engine overwrites result.stats).
                hit = QueryResult(
                    names=list(entry.result.names),
                    columns=[c.view() for c in entry.result.columns],
                )
            else:
                self._drop(key, count_as="invalidation")
                self.stats.misses += 1
                forget = True
        if self._memory is not None:
            if hit is not None:
                self._memory.touch((_MEMORY_NAMESPACE, key))
            elif forget:
                self._forget_if_uncached([key])
        return hit

    # --------------------------------------------------------------- store

    def store(
        self,
        key: str,
        result: QueryResult,
        signatures: dict[str, FileSignature],
    ) -> None:
        # The cache owns private, frozen copies: the storing caller keeps
        # (and may mutate) its own arrays without reaching the cache.
        frozen = []
        for column in result.columns:
            copy = column.copy()
            copy.setflags(write=False)
            frozen.append(copy)
        entry = _Entry(
            result=QueryResult(names=list(result.names), columns=frozen),
            signatures=tuple(sorted(signatures.items())),
            nbytes=result_nbytes(result),
        )
        evicted: list[str] = []
        with self._lock:
            if key in self._entries:
                self._drop(key, count_as=None)
            self._entries[key] = entry
            for table_key, _ in entry.signatures:
                self._by_table.setdefault(table_key, set()).add(key)
            self.stats.stores += 1
            while len(self._entries) > self._max_entries:
                victim = next(iter(self._entries))
                self._drop(victim, count_as="eviction")
                evicted.append(victim)
        if self._memory is None:
            return
        self._forget_if_uncached(evicted)
        self._memory.register(
            (_MEMORY_NAMESPACE, key),
            entry.nbytes,
            dropper=lambda: self._drop_from_memory(key),
        )
        # The entry may have been invalidated between insert and register
        # (its forget then preceded this register): drop the orphan charge.
        with self._lock:
            still_cached = key in self._entries
        if not still_cached:
            self._memory.forget((_MEMORY_NAMESPACE, key))

    # --------------------------------------------------------- invalidation

    def invalidate_table(self, table_key: str) -> int:
        """Drop every cached result that references ``table_key``.

        Called by the engine's invalidation path — the same one that
        drops positional maps and loaded fragments when a flat file is
        edited, detached or cleared.  Returns the number dropped.
        """
        with self._lock:
            keys = list(self._by_table.get(table_key.lower(), ()))
            for key in keys:
                self._drop(key, count_as="invalidation")
        self._forget_if_uncached(keys)
        return len(keys)

    def clear(self) -> None:
        with self._lock:
            keys = list(self._entries)
            for key in keys:
                self._drop(key, count_as="invalidation")
        self._forget_if_uncached(keys)

    # ------------------------------------------------------------ internals

    def _forget_if_uncached(self, keys: list[str]) -> None:
        """Drop memory charges for keys no longer cached.

        The forget happens outside the cache lock (lock ordering), so a
        concurrent ``store`` may have re-inserted the same key in the
        meantime — in that case its fresh charge must survive, hence the
        per-key re-check instead of an unconditional forget.
        """
        if self._memory is None:
            return
        for key in keys:
            with self._lock:
                cached = key in self._entries
            if not cached:
                self._memory.forget((_MEMORY_NAMESPACE, key))

    def _drop_from_memory(self, key: str) -> None:
        """Dropper the MemoryManager calls when evicting a cached result.

        The manager has already removed the charge, so this must not call
        back into it (it may hold the manager's lock).
        """
        with self._lock:
            self._drop(key, count_as="eviction")

    def _drop(self, key: str, count_as: str | None) -> None:
        """Remove ``key`` from the cache maps (cache lock held; no memory
        manager calls — callers forget the charge outside the lock)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for table_key, _ in entry.signatures:
            refs = self._by_table.get(table_key)
            if refs is not None:
                refs.discard(key)
                if not refs:
                    del self._by_table[table_key]
        if count_as == "invalidation":
            self.stats.invalidations += 1
        elif count_as == "eviction":
            self.stats.evictions += 1
