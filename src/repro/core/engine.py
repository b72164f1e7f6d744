"""NoDBEngine: "here are my data files, here are my queries".

The facade the whole repository exists for::

    from repro import NoDBEngine

    engine = NoDBEngine()            # zero initialization
    engine.attach("r", "data.csv")   # just a pointer to the raw file
    result = engine.query(
        "select sum(a1), avg(a2) from r where a1 > 10 and a1 < 500"
    )

Attaching performs no loading.  Every query triggers exactly as much
tokenization, parsing and storing as its loading policy decides, and the
adaptive store grows (and shrinks, under a memory budget) as a side
effect.  This module dispatches; what becomes of the learned state
(staleness, tail-append extension, invalidation on edits, restore from
and writes to the persistent store) is :mod:`repro.core.lifecycle`'s.

Concurrent serving
------------------

The paper's section 5.4 punts on concurrency ("serialize loading per
engine"); this engine replaces that global lock with three layers:

* **per-table reader–writer locks** (:class:`repro.locks.RWLock`, one on
  each :class:`TableEntry`): queries over distinct tables never contend,
  and warm queries over the *same* table share the read side and run
  fully in parallel.  Loading — which mutates the store and the
  positional map — takes the write side.
* **shared-scan batching** (:class:`repro.locks.SingleFlight`): when N
  threads miss the store for the same cold (table, column-set), exactly
  one runs the adaptive load; the rest wait on the flight and then serve
  from the freshly loaded fragments instead of re-scanning the raw file.
* an optional **query-result cache**
  (:class:`repro.core.result_cache.QueryResultCache`): completed results,
  keyed by normalized statement + file signature, served with no loading
  or execution at all, charged to the memory budget and invalidated by
  the same staleness path that drops positional maps.

``EngineConfig(global_lock=True)`` restores the paper's serialization
(the baseline of ``benchmarks/bench_concurrent.py``).
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.config import EngineConfig
from repro.core.lifecycle import Lifecycle, check_detached
from repro.core.loader import _widen_column
from repro.core.monitor import RobustnessMonitor
from repro.core.policies import LoadContext, TableView, make_policy
from repro.core.result_cache import FileSignature, QueryResultCache
from repro.core.statistics import EngineStatistics, QueryStats, Stopwatch
from repro.errors import CatalogError, FlatFileError
from repro.faults import FaultPlan
from repro.locks import SingleFlight
from repro.result import QueryResult
from repro.sql.ast_nodes import SelectStmt
from repro.sql.binder import BoundQuery, bind
from repro.sql.parser import parse_sql
from repro.execution.executor import execute_bound_query
from repro.flatfile.schema import merge_schemas, widest
from repro.storage.catalog import Catalog, MultiFileEntry, TableEntry
from repro.storage.memory import MemoryManager
from repro.storage.persistent import PersistentStore
from repro.strings import StringColumn


class NoDBEngine:
    """Adaptive in-situ query engine over raw flat files."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        # A private copy: set_policy writes to it, and engines sharing
        # one config must not see that.
        self.config = replace(config) if config is not None else EngineConfig()
        # Deterministic fault injection: an explicit plan on the config
        # wins; otherwise the REPRO_FAULTS env hook is consulted once
        # here so served subprocesses can run under a plan too.  None in
        # production — every downstream check is then a no-op.
        self.fault_plan: FaultPlan | None = (
            self.config.fault_plan
            if self.config.fault_plan is not None
            else FaultPlan.from_env()
        )
        self.catalog = Catalog()
        self.memory = MemoryManager(budget_bytes=self.config.memory_budget_bytes)
        self.stats = EngineStatistics()
        self.monitor = RobustnessMonitor(self.stats, self.config, self.memory.stats)
        # Catalog/config mutation (attach, detach, set_policy, close) is
        # serialized here; with ``global_lock=True`` the whole per-query
        # load phase is too (the paper's section 5.4 baseline).  Query
        # serving otherwise relies on the per-table RW locks plus the
        # shared-scan flight gate below.
        self._lock = threading.RLock()
        self._scan_gate = SingleFlight()
        self.result_cache: QueryResultCache | None = None
        if self.config.result_cache:
            self.result_cache = QueryResultCache(
                memory=self.memory, max_entries=self.config.max_cached_results
            )
        # The persistent adaptive store: learned state (positional maps,
        # widened schemas, zone maps, fully loaded columns) that
        # survives restarts, keyed by the source file's fingerprint.
        self.persistent_store: PersistentStore | None = None
        if self.config.store_dir is not None:
            self.persistent_store = PersistentStore(
                self.config.store_dir, fault_plan=self.fault_plan
            )
            self.stats.store = self.persistent_store.stats
        #: The one owner of every table's learned state: staleness,
        #: append-extension, invalidation, restore and the store writer.
        self.lifecycle = Lifecycle(
            self.memory,
            self.persistent_store,
            self.result_cache,
            self.monitor.cracking,
            self.stats,
        )

    # ----------------------------------------------------------- attaching

    def attach(
        self,
        name: str,
        path: Path | str,
        delimiter: str = ",",
        format: str | None = None,
        fixed_widths: tuple[int, ...] | None = None,
    ) -> None:
        """Link a raw file as a queryable table.  No data is read.

        ``format`` picks the file's dialect: ``None``/``"csv"`` (plain
        delimited), ``"quoted-csv"``, ``"tsv"``, ``"jsonl"``,
        ``"fixed-width"`` (needs ``fixed_widths``), or ``"auto"`` to
        sniff lazily on first use.
        """
        with self._lock:
            self.catalog.attach(
                name,
                path,
                delimiter=delimiter,
                bandwidth_bytes_per_sec=self.config.io_bandwidth_bytes_per_sec,
                format=format,
                fixed_widths=fixed_widths,
                fault_plan=self.fault_plan,
            )

    def detach(self, name: str) -> None:
        # ``_lock`` is NOT held across the table write lock: the load
        # path takes locks while a write lock is held, so the orders are
        # kept disjoint rather than nested.
        with self._lock:
            entry = self.catalog.get(name)
        self.lifecycle.detach(entry)
        with self._lock:
            self.catalog.detach(name)

    def tables(self) -> list[str]:
        return self.catalog.names()

    def clear_cache(self, table: str | None = None) -> None:
        """Drop loaded data (and split files) without detaching.

        The paper's lifetime principle (section 5.1.3): anything in the
        adaptive store "may be thrown away at any time — the only cost is
        that of having to reload".  ``table=None`` clears every attached
        table; otherwise just the named one.  Raw files are untouched.
        """
        with self._lock:
            entries = (
                [self.catalog.get(table)]
                if table is not None
                else list(self.catalog.entries.values())
            )
        for entry in entries:
            self.lifecycle.clear(entry)

    def set_policy(self, policy_name: str) -> None:
        """Switch loading policy in place (adaptation trigger, section 5.3).

        The adaptive store survives the switch: fully loaded columns keep
        serving any policy; partial fragments keep their certificates and
        are reused where the new policy understands them (partial_v2) or
        simply superseded by fuller loads (column/split/full).
        """
        make_policy(policy_name)  # validates the name
        with self._lock:
            self.config.policy = policy_name

    def schema_of(self, name: str) -> list[tuple[str, str]]:
        """Column names/types of an attached table (triggers inference)."""
        schema = self.catalog.get(name).ensure_schema()
        return [(c.name, c.dtype.value) for c in schema]

    # ------------------------------------------------------------ querying

    def query(self, sql: str) -> QueryResult:
        """Parse, bind, adaptively load, and execute one SELECT.

        Thread-safe.  Concurrent callers contend only per table: store
        mutation takes the table's write lock, warm serving shares its
        read lock, identical cold scans are coalesced into one load, and
        (when enabled) repeated queries are answered straight from the
        result cache.
        """
        qstats = QueryStats(sql=sql, policy=self.config.policy)
        watch = Stopwatch()
        total = Stopwatch()

        stmt, bound = self._bind(sql)
        entries = {b: self.catalog.get(t) for b, t in bound.tables.items()}
        qstats.tables = sorted({e.name for e in entries.values()})

        cache_key: str | None = None
        signatures: dict[str, FileSignature] | None = None
        if self.result_cache is not None:
            cache_key, signatures = self._cache_probe_key(stmt, entries)
            if cache_key is not None:
                cached = self.result_cache.lookup(cache_key, signatures)
                if cached is not None:
                    return self._finish_cached(cached, qstats, total)
                self.stats.count("result_cache_misses")

        outer = self._lock if self.config.global_lock else nullcontext()
        with outer:
            bytes_before, reads_before, retries_before = self._file_io_totals(
                entries.values()
            )
            watch.lap()
            views = self._provide_views(bound, entries, qstats, signatures)
            qstats.load_s = watch.lap()

        result = execute_bound_query(
            bound,
            get_column=lambda b, c: views[b].get_column(c),
            nrows_of=lambda b: views[b].nrows,
        )
        qstats.execute_s = watch.lap()

        bytes_after, reads_after, retries_after = self._file_io_totals(
            entries.values()
        )
        qstats.file_bytes_read = bytes_after - bytes_before
        qstats.file_reads = reads_after - reads_before
        qstats.io_retries = retries_after - retries_before
        if qstats.io_retries:
            self.stats.count("io_retries", qstats.io_retries)
        qstats.served_from_store = all(v.served_from_store for v in views.values())
        qstats.went_to_file = any(v.went_to_file for v in views.values())
        qstats.result_rows = result.num_rows
        qstats.elapsed_s = total.lap()
        if qstats.zone_map_skips:
            self.stats.count("zone_map_skips", qstats.zone_map_skips)
        if qstats.cracks:
            self.stats.count("cracks", qstats.cracks)
        self.stats.record(qstats)
        result.stats = {
            "policy": self.config.policy,
            "elapsed_s": qstats.elapsed_s,
            "served_from_store": qstats.served_from_store,
            "file_bytes_read": qstats.file_bytes_read,
            "result_cache_hit": False,
        }
        if cache_key is not None and signatures is not None:
            self._maybe_cache(cache_key, signatures, entries, result)
        return result

    def explain(self, sql: str) -> str:
        """Describe what the query needs and what the store already has."""
        _, bound = self._bind(sql)
        lines = [f"policy: {self.config.policy}"]
        for binding, table_name in bound.tables.items():
            entry = self.catalog.get(table_name)
            needed = bound.needed_columns[binding]
            condition = bound.conditions[binding]
            lines.append(f"table {table_name} (as {binding}):")
            lines.append(f"  needed columns: {', '.join(needed)}")
            lines.append(f"  range condition: {condition!r}")
            if isinstance(entry, MultiFileEntry):
                parts = entry.part_entries()
                lines.append(
                    f"  multi-file table ({entry.pattern!r}): "
                    f"{len(parts)} part file(s) known"
                )
                for part in parts:
                    state = "empty" if part.table is None else (
                        f"{part.table.nrows} rows, "
                        f"{len(part.table.fully_loaded_columns())} full columns"
                    )
                    lines.append(f"  part {part.file.path.name}: {state}")
                continue
            table = entry.table
            if table is None:
                lines.append("  store: empty (nothing loaded yet)")
                continue
            for name in needed:
                pc = table.columns.get(name.lower())
                if pc is None or pc.loaded_count == 0:
                    state = "not loaded"
                elif pc.is_fully_loaded:
                    state = "fully loaded"
                else:
                    state = (
                        f"partially loaded ({pc.loaded_count}/{table.nrows} rows, "
                        f"{len(pc.certificates)} certificates)"
                    )
                lines.append(f"  store[{name}]: {state}")
        if bound.has_residual_predicate:
            lines.append("residual predicates present (evaluated post-load)")
        return "\n".join(lines)

    # ------------------------------------------------------------ internals

    def _bind(self, sql: str) -> tuple[SelectStmt, BoundQuery]:
        stmt = parse_sql(sql)
        table_names = []
        if stmt.table is not None:
            table_names.append(stmt.table.name)
        table_names.extend(j.table.name for j in stmt.joins)
        schemas = {}
        for name in table_names:
            entry = self.catalog.get(name)
            schemas[name] = entry.ensure_schema()
        return stmt, bind(stmt, schemas)

    # ------------------------------------------------------- result cache

    def _cache_probe_key(
        self, stmt: SelectStmt, entries: dict[str, TableEntry]
    ) -> tuple[str | None, dict[str, FileSignature] | None]:
        """Cache key + current file signatures (None when un-keyable)."""
        if any(isinstance(e, MultiFileEntry) for e in entries.values()):
            # One signature cannot vouch for a part set that is
            # re-discovered on every query; multi-file tables always run
            # the (per-part warm) serve path.
            return None, None
        try:
            signatures = {
                e.name.lower(): FileSignature.of(e.file.path)
                for e in entries.values()
            }
        except (OSError, FlatFileError):
            # File vanished mid-probe: let the load path raise properly.
            return None, None
        # The attachment uid in the key means a detach + re-attach of the
        # same name (possibly same file, different parse options) can
        # never hit — or be poisoned by — the old attachment's entries.
        key = QueryResultCache.key_for(
            repr(stmt),
            [f"{e.name.lower()}#{e.uid}" for e in entries.values()],
        )
        return key, signatures

    def _finish_cached(
        self, cached: QueryResult, qstats: QueryStats, total: Stopwatch
    ) -> QueryResult:
        qstats.result_cache_hit = True
        qstats.served_from_store = True
        qstats.result_rows = cached.num_rows
        qstats.elapsed_s = total.lap()
        self.stats.count("result_cache_hits")
        self.stats.record(qstats)
        cached.stats = {
            "policy": self.config.policy,
            "elapsed_s": qstats.elapsed_s,
            "served_from_store": True,
            "file_bytes_read": 0,
            "result_cache_hit": True,
        }
        return cached

    def _maybe_cache(
        self,
        cache_key: str,
        signatures: dict[str, FileSignature],
        entries: dict[str, TableEntry],
        result: QueryResult,
    ) -> None:
        """Store the result unless its inputs changed while we computed it.

        Two re-checks: every file signature must be unchanged, and every
        table entry must still be the *current* attachment of its name —
        a detach + re-attach of the same file under different parse
        options (dialect, delimiter) would otherwise let this store
        resurrect a result the detach already invalidated, keyed by a
        signature the new attachment also matches.
        """
        if self.result_cache is None:
            return
        with self._lock:
            current = all(
                self.catalog.entries.get(e.name.lower()) is e
                for e in entries.values()
            )
        if not current:
            return
        try:
            fresh = {
                e.name.lower(): FileSignature.of(e.file.path)
                for e in entries.values()
            }
        except (OSError, FlatFileError):
            return
        if fresh == signatures:
            self.result_cache.store(cache_key, result, fresh)

    # ----------------------------------------------------------- providing

    def _provide_views(
        self,
        bound: BoundQuery,
        entries: dict[str, TableEntry],
        qstats: QueryStats,
        signatures: dict[str, FileSignature] | None = None,
    ) -> dict[str, TableView]:
        views: dict[str, TableView] = {}
        # Tables are served one at a time, in a deterministic order, and
        # each table's lock is released before the next is taken (views
        # hold immutable array snapshots) — so multi-table queries cannot
        # deadlock against each other.
        for binding in sorted(entries, key=lambda b: entries[b].name.lower()):
            entry = entries[binding]
            if isinstance(entry, MultiFileEntry):
                views[binding] = self._provide_multi(binding, entry, bound, qstats)
                continue
            known = (signatures or {}).get(entry.name.lower())
            views[binding] = self._provide_one(binding, entry, bound, qstats, known)
        return views

    def _provide_multi(
        self,
        binding: str,
        entry: MultiFileEntry,
        bound: BoundQuery,
        qstats: QueryStats,
    ) -> TableView:
        """Serve a multi-file table: per-part provision, late union.

        The part set is re-discovered here, so a part file that appeared
        since the last query is picked up (cold, learned incrementally)
        while untouched siblings keep serving warm; a part that vanished
        is invalidated and dropped.  Each part runs the ordinary
        single-table serve path — staleness, append-extension,
        persistence and shared scans all work per part — and the views
        are concatenated in sorted part order.
        """
        check_detached(entry)
        parts, removed = entry.refresh()
        for part in removed:
            self.lifecycle.detach(part)
        needed = bound.needed_columns[binding]
        if not needed:
            needed = [entry.ensure_schema().columns[0].name]
        views = {
            part.name: self._provide_one(binding, part, bound, qstats)
            for part in parts
        }
        # Parts widen independently (their own raw bytes drive the
        # ladder); a query spanning parts must see one dtype per column.
        # Widen lagging parts to the widest observed and re-provide them
        # — re-parsing raw text through the normal path, so e.g. "007"
        # under a str-widened sibling stays "007", not str(int) — and
        # iterate: a re-provide may itself widen further.
        for _ in range(4):  # the ladder has three rungs; fixpoint is near
            changed = False
            for name in needed:
                try:
                    dtypes = {
                        part.name: part.ensure_schema().dtype_of(name)
                        for part in parts
                    }
                except KeyError:
                    raise CatalogError(
                        f"table {entry.name!r}: part files disagree on "
                        f"column {name!r}"
                    ) from None
                target = widest(dtypes.values())
                for part in parts:
                    if dtypes[part.name] is target:
                        continue
                    with part.rwlock.write_locked():
                        check_detached(part)
                        _widen_column(
                            part, part.schema.index_of(name), target
                        )
                    views[part.name] = self._provide_one(
                        binding, part, bound, qstats
                    )
                    changed = True
            if not changed:
                break
        with entry.parts_lock:
            merged = parts[0].ensure_schema()
            for part in parts[1:]:
                merged = merge_schemas(merged, part.ensure_schema())
            entry.schema = merged
        part_views = [views[part.name] for part in parts]
        keys = set(part_views[0].arrays)
        for v in part_views[1:]:
            keys &= set(v.arrays)
        arrays = {
            key: _concat([v.arrays[key] for v in part_views]) for key in keys
        }
        return TableView(
            nrows=sum(v.nrows for v in part_views),
            arrays=arrays,
            went_to_file=any(v.went_to_file for v in part_views),
        )

    def _provide_one(
        self,
        binding: str,
        entry: TableEntry,
        bound: BoundQuery,
        qstats: QueryStats,
        known_fingerprint: "FileSignature | None" = None,
    ) -> TableView:
        # ``count(*)`` references no columns, but the row count still has
        # to come from somewhere: load the first column.
        needed = bound.needed_columns[binding]
        if not needed:
            needed = [entry.ensure_schema().columns[0].name]
        condition = bound.conditions[binding]
        entry_key = entry.name.lower()
        waited = False
        while True:
            # One read of the policy per attempt: a concurrent set_policy
            # must not be observed as one policy here and another in the
            # flight key or the load below.
            policy = make_policy(self.config.policy)
            # Warm path: serve from resident fragments under the shared
            # read lock — warm queries on one table run fully in parallel.
            # The result-cache probe already fingerprinted the file this
            # query; reuse that observation instead of re-hashing.
            stale = entry.is_stale(known_fingerprint)
            known_fingerprint = None  # retries must observe fresh state
            if not stale:
                ctx = self._make_ctx(entry, needed, condition, qstats)
                try:
                    with entry.rwlock.read_locked():
                        check_detached(entry)
                        view = policy.try_serve_warm(ctx)
                finally:
                    self.memory.unpin_many(ctx.pinned_keys)
                if view is not None:
                    self._count_warm(qstats, waited)
                    return view
            # Cold path: coalesce identical scans into one flight, then
            # load under the exclusive write lock.
            flight_key = (
                entry_key,
                policy.name,
                tuple(sorted(n.lower() for n in needed)),
                repr(condition),
            )
            if not self._scan_gate.lead_or_wait(flight_key):
                # Another thread just loaded exactly this: re-probe warm.
                waited = True
                continue
            try:
                with entry.rwlock.write_locked():
                    # Staleness, append-extension and the restart-warm
                    # restore; the fingerprint is taken before any raw read.
                    fingerprint = self.lifecycle.prepare(entry)
                    ctx = self._make_ctx(entry, needed, condition, qstats)
                    try:
                        view = policy.try_serve_warm(ctx)
                        if view is not None:
                            self._count_warm(qstats, waited)
                            return view
                        generation = entry.generation
                        self._pin_resident(entry, needed, ctx)
                        view = self.lifecycle.load(policy, ctx, fingerprint)
                        if view.went_to_file:
                            self.stats.note_load(
                                entry_key,
                                frozenset(n.lower() for n in needed),
                                generation,
                            )
                        else:
                            # provide() without touching the raw file
                            # (columns a store restore left resident, v2
                            # coverage found inside the lock): warm in
                            # substance, and a follower that waited still
                            # counts as reuse.
                            self._count_warm(qstats, waited)
                        return view
                    finally:
                        self.memory.unpin_many(ctx.pinned_keys)
            finally:
                self._scan_gate.done(flight_key)

    def _count_warm(self, qstats: QueryStats, waited: bool) -> None:
        if waited:
            qstats.shared_scan_reused = True
            self.stats.count("shared_scan_reuses")
        else:
            self.stats.count("warm_hits")

    def _make_ctx(
        self,
        entry: TableEntry,
        needed: list[str],
        condition,
        qstats: QueryStats,
    ) -> LoadContext:
        return LoadContext(
            entry=entry,
            needed=needed,
            condition=condition,
            config=self.config,
            memory=self.memory,
            qstats=qstats,
            advisor=self.monitor.cracking,
        )

    def _pin_resident(self, entry: TableEntry, needed: list[str], ctx: LoadContext) -> None:
        """Pin this query's already-resident columns: loading a missing
        column must never evict a sibling the same query needs."""
        if entry.table is None:
            return
        schema = entry.ensure_schema()
        for name in needed:
            ctx.pin((entry.table.name, schema.column(name).name))

    def _file_io_totals(self, entries) -> tuple[int, int, int]:
        """Raw-file I/O attributable to the *calling thread*.

        ``QueryStats.file_bytes_read`` is the before/after delta of this,
        taken on the query's own thread — so concurrent queries never
        inherit each other's I/O (a shared-scan follower reports 0 even
        though the leader read the whole file).  Split-file bytes are
        still engine-wide counters: splitfile fetches run under the
        table's write lock, so same-table deltas may observe the
        leader's cracking I/O.
        """
        total_bytes = 0
        total_reads = 0
        total_retries = 0
        for entry in (part for e in entries for part in e.part_entries()):
            nbytes, calls = entry.file.thread_io_totals()
            total_bytes += nbytes
            total_reads += calls
            total_retries += entry.file.thread_io_retries()
            split = entry.split_catalog
            if split is not None:
                total_bytes += split.io_bytes_read()
        return total_bytes, total_reads, total_retries

    # ----------------------------------------------------- persistent store

    def flush_persistent_store(self) -> None:
        """Block until every scheduled store write has landed.

        Re-raises writer-thread failures; used by tests, benches and
        anything simulating a restart hand-off to a new engine.
        """
        self.lifecycle.flush()

    # -------------------------------------------------------------- cleanup

    def close(self) -> None:
        """Release split-file scratch space and drain the persist writer.

        The persistent store itself is durable state and survives close —
        that is the point — but in-flight writes are allowed to land so a
        follow-up engine sees them (writer errors are swallowed here; use
        :meth:`flush_persistent_store` to observe them)."""
        with self._lock:
            entries = list(self.catalog.entries.values())
        self.lifecycle.close(entries)

    def __enter__(self) -> "NoDBEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _concat(parts: list) -> "np.ndarray | StringColumn":
    """One column of a multi-file table from its parts' columns, in part
    order (the first part's string codes stay put)."""
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], StringColumn):
        return StringColumn.concat(parts)
    return np.concatenate(parts)
