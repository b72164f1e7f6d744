"""Engine statistics: the quantitative story behind every figure.

Every query records a :class:`QueryStats` with the raw-file work it caused
(bytes read, rows/fields tokenized, values parsed), the adaptive-store
traffic (rows newly loaded, rows served from cache) and wall-clock split
into load vs execute.  :class:`EngineStatistics` keeps the last
:data:`HISTORY_CAP` of them, the engine's only per-query record, plus
running totals over every query, so a long-running engine's memory and
``snapshot()`` cost stay flat.  The bench harness reads the records to
print the paper's series, and the robustness monitor (section 5.5) reads
its window from the same deque.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields
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
        snap = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("tokenizer", "parse")
        }
        snap["tables"] = list(self.tables)
        snap["values_parsed"] = self.parse.values_parsed
        snap["fields_tokenized"] = self.tokenizer.fields_tokenized
        return snap


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
        return asdict(self)


#: Per-query records an engine keeps: enough for the monitor's window and
#: any test or debugging session, small enough that a serving engine's
#: memory does not grow with its age.  Totals keep counting past it.
HISTORY_CAP = 1024


@dataclass
class EngineStatistics:
    """Per-engine history: the recent queries and running totals."""

    #: The last :data:`HISTORY_CAP` queries, oldest first.
    queries: deque[QueryStats] = field(
        default_factory=lambda: deque(maxlen=HISTORY_CAP)
    )
    counters: ConcurrencyCounters = field(default_factory=ConcurrencyCounters)
    #: (table key, frozenset of columns, generation) -> raw-file loads.
    loads_by_signature: dict[tuple, int] = field(default_factory=dict)
    #: The persistent store's I/O accounting (None without a store).
    store: "PersistentStoreStats | None" = None
    # Running totals over every recorded query, kept or dropped.
    total_queries: int = 0
    total_file_bytes: int = 0
    total_values_parsed: int = 0
    total_rows_loaded: int = 0
    queries_from_store: int = 0
    queries_from_file: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(self, q: QueryStats) -> None:
        with self._lock:
            self.queries.append(q)
            self.total_queries += 1
            self.total_file_bytes += q.file_bytes_read
            self.total_values_parsed += q.parse.values_parsed
            self.total_rows_loaded += q.rows_loaded
            self.queries_from_store += q.served_from_store
            self.queries_from_file += q.went_to_file

    def recent(self, n: int) -> list[QueryStats]:
        """The last ``n`` recorded queries (fewer if fewer ran), oldest first."""
        with self._lock:
            return list(itertools.islice(reversed(self.queries), n))[::-1]

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
        dict is plain data — no live counter objects escape.  Its cost
        does not grow with the number of queries run.
        """
        with self._lock:
            return {
                "queries": self.total_queries,
                "total_file_bytes": self.total_file_bytes,
                # Bytes the persistent store wrote (array files + manifests):
                # a tail-append save adds kilobytes, a rewrite the whole entry.
                "persist_bytes_written": (
                    self.store.bytes_written if self.store is not None else 0
                ),
                "total_values_parsed": self.total_values_parsed,
                "total_rows_loaded": self.total_rows_loaded,
                "queries_from_store": self.queries_from_store,
                "queries_from_file": self.queries_from_file,
                "max_loads_per_signature": max(
                    self.loads_by_signature.values(), default=0
                ),
                "counters": self.counters.snapshot(),
                "last_query": self.queries[-1].snapshot() if self.queries else None,
            }

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
