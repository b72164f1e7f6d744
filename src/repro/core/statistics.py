"""Engine statistics: the quantitative story behind every figure.

Every query records a :class:`QueryStats` with the raw-file work it caused
(bytes read, rows/fields tokenized, values parsed), the adaptive-store
traffic (rows newly loaded, rows served from cache) and wall-clock split
into load vs execute.  The bench harness reads these to print the paper's
series, and the robustness monitor (section 5.5) reads them to detect
pathological workloads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.flatfile.parser import ParseStats
from repro.flatfile.tokenizer import TokenizerStats

if TYPE_CHECKING:
    from repro.storage.persistent import PersistentStoreStats


@dataclass
class QueryStats:
    """Everything one query cost."""

    sql: str = ""
    policy: str = ""
    tables: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    load_s: float = 0.0
    execute_s: float = 0.0
    tokenizer: TokenizerStats = field(default_factory=TokenizerStats)
    parse: ParseStats = field(default_factory=ParseStats)
    file_bytes_read: int = 0
    file_reads: int = 0
    rows_loaded: int = 0
    served_from_store: bool = False
    went_to_file: bool = False
    split_files_written: int = 0
    result_rows: int = 0
    #: Row-range partitions scanned by the parallel loader (0 = serial).
    parallel_partitions: int = 0
    #: Served straight from the query-result cache (no load, no execute).
    result_cache_hit: bool = False
    #: At least one of this query's tables was served from fragments
    #: loaded by a concurrent query's shared scan this query waited on.
    shared_scan_reused: bool = False
    #: Zones (fixed row ranges) the selective path skipped because their
    #: min/max statistics proved no row could match a range predicate.
    zone_map_skips: int = 0
    #: Crack operations (piece partitions) this query's warm serves
    #: caused in cracked predicate columns.
    cracks: int = 0
    #: At least one table view was answered by a cracker index instead
    #: of full-column masks.
    served_by_cracker: bool = False
    #: Raw-file reads this query re-attempted after a transient I/O
    #: error (bounded retry-with-backoff in the flat-file layer).
    io_retries: int = 0

    def summary(self) -> str:
        src = "store" if self.served_from_store else "file"
        return (
            f"{self.elapsed_s * 1e3:8.2f} ms  src={src:5s} "
            f"bytes={self.file_bytes_read:>10d} tok={self.tokenizer.fields_tokenized:>9d} "
            f"parse={self.parse.values_parsed:>9d} loaded={self.rows_loaded:>8d}"
        )

    def snapshot(self) -> dict:
        """JSON-safe flat view of what this query cost (wire/CLI form)."""
        return {
            "sql": self.sql,
            "policy": self.policy,
            "tables": list(self.tables),
            "elapsed_s": self.elapsed_s,
            "load_s": self.load_s,
            "execute_s": self.execute_s,
            "file_bytes_read": self.file_bytes_read,
            "file_reads": self.file_reads,
            "rows_loaded": self.rows_loaded,
            "values_parsed": self.parse.values_parsed,
            "fields_tokenized": self.tokenizer.fields_tokenized,
            "served_from_store": self.served_from_store,
            "went_to_file": self.went_to_file,
            "result_rows": self.result_rows,
            "parallel_partitions": self.parallel_partitions,
            "result_cache_hit": self.result_cache_hit,
            "shared_scan_reused": self.shared_scan_reused,
            "zone_map_skips": self.zone_map_skips,
            "cracks": self.cracks,
            "served_by_cracker": self.served_by_cracker,
            "io_retries": self.io_retries,
        }


@dataclass
class ConcurrencyCounters:
    """Serving-layer counters for the concurrent engine.

    Every table view a query obtains is counted exactly once as a warm
    hit, a shared-scan reuse or a shared-scan load, so::

        warm_hits + shared_scan_reuses + shared_scan_loads
            == table views provided

    and, with the result cache enabled::

        result_cache_hits + result_cache_misses == queries run

    (a cache hit skips view provision entirely).  The per-signature load
    ledger (:attr:`loads_by_signature`) counts raw-file loads by
    ``(table, column-set, generation)``: shared-scan batching guarantees
    at most one load per cold (table, column-set) generation for the
    store-keeping policies, and the concurrency tests assert exactly
    that.
    """

    #: Query served straight from the result cache.
    result_cache_hits: int = 0
    #: Result-cache probe missed (query then ran normally).
    result_cache_misses: int = 0
    #: Table view served from resident fragments without waiting.
    warm_hits: int = 0
    #: Table view served warm after waiting on another thread's load.
    shared_scan_reuses: int = 0
    #: Table view whose provision ran a raw-file load (flight leader).
    shared_scan_loads: int = 0
    #: Entries written to the persistent store (off the query path).
    persist_writes: int = 0
    #: Cold tables restored from the persistent store instead of scanned.
    restart_warm_hits: int = 0
    #: Persisted entries deleted because their fingerprint mismatched the
    #: live file (staleness) or the in-memory table was invalidated.
    store_invalidations: int = 0
    #: Stale fingerprints recognized as pure tail-appends whose learned
    #: state was extended in place instead of wiped.
    append_extensions: int = 0
    #: Zones skipped by zone-map pruning across all queries.
    zone_map_skips: int = 0
    #: Crack operations performed by warm serves across all queries.
    cracks: int = 0
    #: Raw-file reads re-attempted after a transient I/O error.
    io_retries: int = 0
    #: Persistent-store writes or restores that failed (the engine
    #: degraded to warm-only serving instead of failing the query).
    persist_failures: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "result_cache_hits": self.result_cache_hits,
            "result_cache_misses": self.result_cache_misses,
            "warm_hits": self.warm_hits,
            "shared_scan_reuses": self.shared_scan_reuses,
            "shared_scan_loads": self.shared_scan_loads,
            "persist_writes": self.persist_writes,
            "restart_warm_hits": self.restart_warm_hits,
            "store_invalidations": self.store_invalidations,
            "zone_map_skips": self.zone_map_skips,
            "cracks": self.cracks,
            "io_retries": self.io_retries,
            "persist_failures": self.persist_failures,
        }


@dataclass
class EngineStatistics:
    """Accumulated per-engine history."""

    queries: list[QueryStats] = field(default_factory=list)
    counters: ConcurrencyCounters = field(default_factory=ConcurrencyCounters)
    #: (table key, frozenset of columns, generation) -> raw-file loads.
    loads_by_signature: dict[tuple, int] = field(default_factory=dict)
    #: The persistent store's I/O accounting (None without a store).
    store: "PersistentStoreStats | None" = None

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(self, q: QueryStats) -> None:
        with self._lock:
            self.queries.append(q)

    # ------------------------------------------------- concurrency counters

    def count(self, counter: str, n: int = 1) -> None:
        """Atomically bump one :class:`ConcurrencyCounters` field."""
        with self._lock:
            setattr(self.counters, counter, getattr(self.counters, counter) + n)

    #: Ledger cap: a long-running serving engine bumps a table's
    #: generation on every file edit, so unpruned (table, columns,
    #: generation) keys would grow forever.  FIFO-drop the oldest past
    #: this bound — far above what any test or debugging session reads.
    _MAX_LOAD_SIGNATURES = 4096

    def note_load(
        self, table_key: str, columns: frozenset[str], generation: int
    ) -> None:
        """Record one raw-file load for a (table, column-set) generation."""
        signature = (table_key, columns, generation)
        with self._lock:
            self.counters.shared_scan_loads += 1
            self.loads_by_signature[signature] = (
                self.loads_by_signature.get(signature, 0) + 1
            )
            while len(self.loads_by_signature) > self._MAX_LOAD_SIGNATURES:
                oldest = next(iter(self.loads_by_signature))
                del self.loads_by_signature[oldest]

    def max_loads_per_signature(self) -> int:
        """The worst duplicate-load count across all generations (0 = none)."""
        with self._lock:
            return max(self.loads_by_signature.values(), default=0)

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> dict:
        """Thread-safe, JSON-safe point-in-time copy of the statistics.

        This is the **only** sanctioned way for serving layers (the HTTP
        ``/stats`` endpoint, the CLI ``--stats`` printer) to read engine
        statistics: one lock acquisition yields a coherent copy, and the
        dict is plain data — no live counter objects escape.
        """
        with self._lock:
            queries = list(self.queries)
            counters = self.counters.snapshot()
            max_loads = max(self.loads_by_signature.values(), default=0)
        return {
            "queries": len(queries),
            "total_file_bytes": sum(q.file_bytes_read for q in queries),
            # Bytes the persistent store wrote (array files + manifests):
            # a tail-append save adds kilobytes, a rewrite the whole entry.
            "persist_bytes_written": (
                self.store.bytes_written if self.store is not None else 0
            ),
            "total_values_parsed": sum(q.parse.values_parsed for q in queries),
            "total_rows_loaded": sum(q.rows_loaded for q in queries),
            "queries_from_store": sum(1 for q in queries if q.served_from_store),
            "queries_from_file": sum(1 for q in queries if q.went_to_file),
            "max_loads_per_signature": max_loads,
            "counters": counters,
            "last_query": queries[-1].snapshot() if queries else None,
        }

    @property
    def total_file_bytes(self) -> int:
        return sum(q.file_bytes_read for q in self.queries)

    @property
    def total_values_parsed(self) -> int:
        return sum(q.parse.values_parsed for q in self.queries)

    @property
    def total_rows_loaded(self) -> int:
        return sum(q.rows_loaded for q in self.queries)

    @property
    def queries_from_store(self) -> int:
        return sum(1 for q in self.queries if q.served_from_store)

    @property
    def queries_from_file(self) -> int:
        return sum(1 for q in self.queries if q.went_to_file)

    def last(self) -> QueryStats:
        if not self.queries:
            raise IndexError("no queries recorded yet")
        return self.queries[-1]


class Stopwatch:
    """Tiny perf_counter helper used by the engine's load/execute split."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        elapsed = now - self._start
        self._start = now
        return elapsed
