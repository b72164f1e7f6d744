"""The learned-state lifecycle of an attached table: its one owner.

Everything the engine learns from a raw file (store columns, positional
map, zone maps, crackers, split files, cached results, the persistent
store's entry) is a cache over that file: it "may be thrown away at any
time" (paper section 5.1.3) and must be dropped when the file is edited
(section 5.4).  Only this module moves a
:class:`~repro.storage.catalog.TableEntry` between the conditions of that
cache, and only it assigns ``loaded_fingerprint``, ``store_base``,
``epoch``, ``generation`` and ``detached`` (a design-invariant test holds
it to that):

* **cold**: no table, no brand; **learned**: a load created the table and
  branded it with the fingerprint taken *before* its raw read;
* **extended**: a verified pure tail-append grew the state in place.  The
  positional map absorbs the tail's spans, fully loaded columns parse and
  concatenate just the appended values (partial fragments drop: their
  certificates no longer describe the grown row space) and zone maps
  merge and append zones.  Crackers, split files and cached results
  drop: their answers changed;
* **invalidated**: an edit, ``clear_cache`` or ``detach`` dropped it all;
* **restored / persisted**: restored from the persistent store, or written
  to it by one background writer; ``store_base`` names the store entry
  the state extends row for row.

Any failed precondition of an extension or a restore falls back to
invalidation, which is always correct.  Every change to an entry runs
under its table's write lock; the writer snapshots under the read lock.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import suppress

import numpy as np

from repro.core.loader import parse_widening
from repro.core.monitor import CrackingAdvisor
from repro.core.policies import LoadContext, LoadingPolicy, TableView, register_column
from repro.core.result_cache import QueryResultCache
from repro.core.statistics import EngineStatistics
from repro.errors import CatalogError, FlatFileError
from repro.flatfile.files import FileFingerprint, detect_tail_append
from repro.flatfile.parser import ParseStats
from repro.flatfile.positions import PositionalMap
from repro.flatfile.schema import ColumnSchema, DataType, TableSchema
from repro.flatfile.tokenizer import tokenize_bytes
from repro.storage.catalog import MultiFileEntry, TableEntry
from repro.storage.memory import MemoryManager
from repro.storage.persistent import PersistedState, PersistentStore
from repro.storage.table import Table

#: Consecutive persistent-store write failures after which the store goes
#: read-only for the rest of the engine's life (warm-only serving).
PERSIST_FAILURE_LIMIT = 3


def check_detached(entry: TableEntry | MultiFileEntry) -> None:
    """Refuse to serve a tombstoned entry (caller holds a table lock).

    A query may have resolved the entry just before a concurrent
    ``detach`` completed; failing here (exactly as if the lookup had
    happened after the detach) prevents it from repopulating store or
    split state that nothing would ever clean up.
    """
    if entry.detached:
        raise CatalogError(f"table {entry.name!r} was detached while the query ran")


class Lifecycle:
    """Restore, brand, extend, invalidate and persist tables' learned state."""

    def __init__(
        self,
        memory: MemoryManager,
        store: PersistentStore | None,
        result_cache: QueryResultCache | None,
        advisor: CrackingAdvisor,
        stats: EngineStatistics,
    ) -> None:
        self.memory = memory
        self.store = store
        self.result_cache = result_cache
        self.advisor = advisor
        self.stats = stats
        # The persist writer: one background thread, started on first use.
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._futures: list[Future] = []
        #: path -> last-persisted state token; skips no-op re-persists.
        self._tokens: dict[str, tuple] = {}
        # Persist-failure degradation: writes that keep failing flip the
        # store read-only and the engine serves warm-only from memory —
        # a broken store directory must never fail a query.
        self.read_only = False
        self._failures = 0

    # ------------------------------------------------------------- loading

    def prepare(self, entry: TableEntry) -> FileFingerprint:
        """Settle an entry before a cold provision (write lock held).

        Refuses a detached entry, extends or invalidates a stale one,
        and restores a cold one from the persistent store.  Returns the
        fingerprint taken by the staleness check, before any raw read:
        data loaded after this point is branded with it, so a file
        replaced mid-load mismatches on the next query and is reloaded.
        """
        check_detached(entry)
        fingerprint = entry.file.fingerprint()
        if entry.loaded_fingerprint not in (None, fingerprint):
            if not self._extend_append(entry, fingerprint):
                self.invalidate(entry)
        if self.store is not None and entry.table is None:
            try:
                self._restore(entry, fingerprint)
            except (OSError, FlatFileError):
                # A corrupt or unreadable store entry must never fail the
                # query: wipe whatever the partial restore left behind and
                # scan cold.
                self.stats.count("persist_failures")
                self.invalidate(entry)
        return fingerprint

    def load(
        self, policy: LoadingPolicy, ctx: LoadContext, fingerprint: FileFingerprint
    ) -> TableView:
        """Run one cold ``policy.provide`` and settle what it left (write
        lock held).

        The table is branded once, in a ``finally``, with ``fingerprint``
        from :meth:`prepare`: should the load fail after creating the
        table, its bytes were still read under that identity, so an
        append landing mid-read is observed by the next staleness check.
        """
        entry = ctx.entry
        pmap = entry.positional_map
        before = pmap.copy()
        mapped = len(pmap.known_columns())
        try:
            view = policy.provide(ctx)
        finally:
            if entry.table is not None:
                entry.loaded_fingerprint = fingerprint
        if not pmap.extends(before):
            # A load drops the map only when the selective route found it
            # damaged.  A restored map is damaged on disk too: forget the
            # store entry, so the save below writes the re-framed map
            # whole instead of appending to the bad one.
            self._forget_store(entry)
        if view.went_to_file:
            self._fit_positional_map(ctx, mapped)
        self.schedule_persist(entry, fingerprint)
        return view

    def _fit_positional_map(self, ctx: LoadContext, mapped: int) -> None:
        """Keep the columns a framing pass added past this query's only
        while they fit the memory budget.

        A framing pass learns every column's spans, 8 bytes a row for
        each, whatever the query used; the map is not an evictable
        fragment.  So under a budget, when the map and the resident
        fragments no longer fit in it, the map is cut back to the
        ``mapped`` columns it knew before this query or the columns this
        query touched, whichever is more: a later query on another
        column frames the file again, the only cost of forgetting (paper
        section 5.1.3).
        """
        pmap = ctx.entry.positional_map
        budget = self.memory.budget_bytes
        if (
            budget is None
            or len(pmap.known_columns()) <= mapped
            or self.memory.resident_bytes + pmap.nbytes <= budget
        ):
            return
        schema = ctx.entry.ensure_schema()
        names = list(ctx.needed) + [c for c, _ in ctx.condition.items]
        pmap.truncate(max(mapped, max(schema.index_of(n) for n in names) + 1))

    # ------------------------------------------------------------- restore

    def _restore(self, entry: TableEntry, fingerprint: FileFingerprint) -> None:
        """Restore a cold table from the persistent store.

        The restored state is branded with ``fingerprint``, the same rule
        cold loads follow.  A fingerprint-stale persisted entry is
        deleted and counted, and the scan proceeds cold — *unless* the
        mismatch is a pure tail-append, in which case the entry restores
        under its stored (old) fingerprint and is extended over the
        appended region in place, exactly like a warm table would be.
        """
        outcome = self.store.load(entry.file.path, fingerprint)
        if outcome.invalidated:
            self.stats.count("store_invalidations")
        state = outcome.state
        if state is None or state.nrows <= 0:
            return
        brand = state.fingerprint if outcome.appended else fingerprint
        # Adopt the persisted (possibly widened) schema wholesale: it was
        # inferred — and widened — from exactly the bytes the fingerprint
        # vouches for.
        entry.schema = TableSchema([ColumnSchema(n, DataType(d)) for n, d in state.schema])
        entry.has_header = state.has_header
        entry.table = Table(entry.name, entry.schema, state.nrows)
        entry.positional_map = state.positional_map
        entry.zone_maps = state.zone_maps
        entry.loaded_fingerprint = brand
        entry.store_base = (state.fingerprint, state.nrows)
        for name, values in state.columns.items():
            entry.table.column(name).restore_full(values)
            register_column(self.memory, entry.table, name)
        # What we just restored is exactly what a re-persist would write.
        with self._lock:
            self._tokens[str(entry.file.path)] = _persist_token(entry, brand)
        if outcome.appended and not self._extend_append(entry, fingerprint):
            # The restored state covers only the old prefix of the live
            # file and cannot be grown to match it: fall all the way to
            # cold.
            self.invalidate(entry)
            return
        self.stats.count("restart_warm_hits")

    # ------------------------------------------------------------- appends

    def _extend_append(self, entry: TableEntry, fingerprint: FileFingerprint) -> bool:
        """Extend learned state over a pure tail-append to ``fingerprint``.

        Returns False when the change is not a tail-append or any
        extension precondition fails; the caller then invalidates.
        """
        old = entry.loaded_fingerprint
        if old is None or not detect_tail_append(entry.file.path, old, fingerprint):
            return False
        try:
            if not _extend_state(entry, old, fingerprint, self.memory):
                return False
        except FlatFileError:
            return False
        self._drop_answers(entry)
        entry.loaded_fingerprint = fingerprint
        entry.generation += 1
        self.stats.count("append_extensions")
        self.schedule_persist(entry, fingerprint)
        return True

    # -------------------------------------------------------- invalidation

    def invalidate(self, entry: TableEntry) -> None:
        """Drop everything learned from the file, back to cold (write
        lock held): store columns, map, zone maps, crackers, split
        files, cached results, schema and the store entry."""
        table = entry.table
        if table is not None:
            for pc in table.columns.values():
                self.memory.forget((table.name, pc.name))
            table.drop_all()
        self._drop_answers(entry)
        entry.table = None
        entry.positional_map.clear()
        entry.zone_maps = None
        entry.loaded_fingerprint = None
        entry.schema = None
        entry.generation += 1
        entry.file.reset_format_state()
        self._forget_store(entry)

    def clear(self, entry: TableEntry | MultiFileEntry) -> None:
        """Invalidate a table, or every part of a multi-file one."""
        for part in entry.part_entries():
            with part.rwlock.write_locked():
                self.invalidate(part)

    def detach(self, entry: TableEntry | MultiFileEntry) -> None:
        """Tombstone a table (and its parts) and drop what it learned.

        The tombstone, set under the same write lock every serve path
        checks under, stops a query that resolved the entry before the
        detach from repopulating store or split state afterwards.
        """
        if isinstance(entry, MultiFileEntry):
            with entry.rwlock.write_locked():
                entry.detached = True
        for part in entry.part_entries():
            with part.rwlock.write_locked():
                part.detached = True
                self.invalidate(part)

    def _drop_answers(self, entry: TableEntry) -> None:
        """Drop what any file change makes wrong, appends included:
        crackers, the advisor's scan counts, cached results, and split
        files (they cover the old rows only; rebuilt lazily)."""
        if entry.split_catalog is not None:
            entry.split_catalog.destroy()
            entry.split_catalog = None
        for col in list(entry.crackers):
            self.memory.forget(entry.cracker_key(col))
        entry.crackers.clear()
        self.advisor.forget_table(entry.name.lower())
        if self.result_cache is not None:
            self.result_cache.invalidate_table(entry.name.lower())

    def _forget_store(self, entry: TableEntry) -> None:
        """The state no longer extends any store entry: drop the entry
        on disk, its token and ``store_base``.  Bumping ``epoch`` makes
        a save already in flight delete what it writes."""
        entry.store_base = None
        entry.epoch += 1
        if self.store is None:
            return
        with self._lock:
            self._tokens.pop(str(entry.file.path), None)
        if self.store.invalidate(entry.file.path):
            self.stats.count("store_invalidations")

    # --------------------------------------------------------- persistence

    def schedule_persist(self, entry: TableEntry, fingerprint: FileFingerprint) -> None:
        """Queue a crash-safe store write (off the query path).

        Called while the table write lock is held; the writer thread
        snapshots the entry under the read lock and re-validates the
        fingerprint, so a table invalidated between scheduling and
        writing is simply skipped.
        """
        if self.store is None or self.read_only or entry.table is None or entry.detached:
            return
        key = str(entry.file.path)
        token = _persist_token(entry, fingerprint)
        with self._lock:
            if self._tokens.get(key) == token:
                return
            self._tokens[key] = token
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-persist"
                )
            self._futures.append(
                self._pool.submit(self._persist, entry, fingerprint, key, token)
            )

    def _persist(
        self, entry: TableEntry, fingerprint: FileFingerprint, key: str, token: tuple
    ) -> None:
        """Writer-thread body: snapshot under the read lock, write outside,
        and delete the write again if the state was invalidated meanwhile.

        A failed disk write degrades, never escalates: the token is
        dropped (a later load may retry), the failure is counted, and
        after :data:`PERSIST_FAILURE_LIMIT` *consecutive* failures the
        store goes read-only for this engine — queries keep being served
        warm from memory, they just stop surviving restarts.
        """
        try:
            with entry.rwlock.read_locked():
                if entry.detached or entry.loaded_fingerprint != fingerprint:
                    return
                state = PersistedState.from_entry(entry, fingerprint)
                epoch = entry.epoch
            self.store.save(state)
            with entry.rwlock.read_locked():
                if entry.detached or entry.epoch != epoch:
                    # An invalidation (``clear_cache``, ``detach``, an
                    # edit) landed during the save and deleted nothing:
                    # delete what was just written.  Holding the read
                    # lock keeps a restore from reading it meanwhile; a
                    # save scheduled since runs after this one.
                    self.store.invalidate(entry.file.path)
                    with self._lock:
                        if self._tokens.get(key) == token:
                            del self._tokens[key]
                    return
                # Only this thread reads or writes ``store_base`` under
                # the read lock; everything else that writes it holds the
                # write lock.  The state still extends the snapshot — even
                # if a tail-append extended it meanwhile — so it extends
                # what was just committed.
                entry.store_base = (fingerprint, state.nrows)
            self.stats.count("persist_writes")
            with self._lock:
                self._failures = 0
        except BaseException as exc:
            disk = isinstance(exc, (OSError, FlatFileError))
            with self._lock:
                if self._tokens.get(key) == token:
                    del self._tokens[key]
                self._failures += disk
                if self._failures >= PERSIST_FAILURE_LIMIT:
                    self.read_only = True
            if not disk:
                raise  # a bug, not the disk: surfaces via flush
            self.stats.count("persist_failures")

    def flush(self) -> None:
        """Block until every scheduled store write has landed; re-raises
        writer-thread failures."""
        while True:
            with self._lock:
                futures, self._futures = self._futures, []
            if not futures:
                return
            for f in futures:
                f.result()

    def close(self, entries: list[TableEntry | MultiFileEntry]) -> None:
        """Drain and stop the writer, and release split-file scratch space.

        The persistent store itself is durable state and survives: in-flight
        writes land so a follow-up engine sees them (writer errors are
        swallowed here; :meth:`flush` observes them)."""
        with suppress(Exception):
            self.flush()
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        for entry in entries:
            for part in entry.part_entries():
                split, part.split_catalog = part.split_catalog, None
                if split is not None:
                    split.destroy()


def _persist_token(entry: TableEntry, fingerprint: FileFingerprint) -> tuple:
    """What a persist of ``entry`` right now would write (a table lock
    held): used to skip writes that would change nothing."""
    loaded: frozenset = frozenset()
    if entry.table is not None:
        loaded = frozenset(
            pc.name
            for pc in entry.table.columns.values()
            if pc.values is not None and pc.is_fully_loaded
        )
    return (
        fingerprint,
        loaded,
        len(entry.positional_map.known_columns()),
        frozenset(entry.zone_maps.columns) if entry.zone_maps is not None else frozenset(),
    )


def _extend_state(
    entry: TableEntry,
    old: FileFingerprint,
    new: FileFingerprint,
    memory: MemoryManager,
) -> bool:
    """Extend ``entry``'s learned state over a verified tail-append.

    The file grew from ``old`` to ``new`` with the prior region
    byte-identical (:func:`repro.flatfile.files.detect_tail_append`).
    Returns True when every structure was extended consistently; False
    (or a :class:`FlatFileError`) declines, and the caller must fall back
    to full invalidation.  The appended region is the only part of the
    file this reads.
    """
    table = entry.table
    if table is None:
        return False
    adapter = entry.file.adapter
    if not adapter.records_are_lines:
        # Records may span lines (quoted CSV): the appended bytes cannot
        # be framed as a standalone document.
        return False
    schema = entry.ensure_schema()
    pm = entry.positional_map
    if pm.nrows is not None and pm.nrows != table.nrows:
        return False
    if entry.zone_maps is not None and entry.zone_maps.nrows != table.nrows:
        entry.zone_maps = None
    # Tokenizing the appended bytes standalone is only sound when the old
    # content ended at a record boundary.
    if entry.file.read_range_bytes(old.size - 1, old.size) != b"\n":
        return False
    data = entry.file.read_range_bytes(old.size, new.size)

    # Columns whose appended values matter: spans the positional map
    # knows, fully loaded store columns, and zone-mapped columns.
    full_idx: set[int] = set()
    for pc in table.columns.values():
        if pc.is_fully_loaded and pc.values is not None:
            try:
                full_idx.add(schema.index_of(pc.name))
            except KeyError:
                return False
    want = set(pm.known_columns()) | full_idx
    if entry.zone_maps is not None:
        want |= set(entry.zone_maps.columns)
    want &= set(range(len(schema)))

    tail_map = PositionalMap()
    result = tokenize_bytes(
        data,
        adapter,
        ncols=len(schema),
        needed=sorted(want) if want else [0],
        predicates={},
        positional_map=tail_map,
        learn=True,
        skip_rows=0,
        source=entry.file.path,
        offset=old.size,
    )
    added = result.stats.rows_scanned
    if added == 0:
        # Only blank lines were appended: nothing semantic changed, the
        # caller just re-brands the entry with the new fingerprint.
        return True
    new_nrows = table.nrows + added

    # Parse the appended values of every column that keeps typed state.
    # Parsing may widen the schema exactly as a cold scan would (the
    # widening converts or drops the store column and its zones itself).
    parse_idx = set(full_idx)
    if entry.zone_maps is not None:
        parse_idx |= set(entry.zone_maps.columns)
    parse_stats = ParseStats()
    appended_idx: dict[int, np.ndarray] = {}
    for idx in sorted(parse_idx):
        raw = result.fields.get(idx)
        if raw is None or len(raw) != added:
            return False
        appended_idx[idx] = parse_widening(entry, idx, raw, parse_stats)

    pm.extend_tail(tail_map, added, old.size)

    appended_by_key = {
        schema.columns[idx].name.lower(): values
        for idx, values in appended_idx.items()
    }
    kept = table.grow(new_nrows, appended_by_key)
    for key, stayed in kept.items():
        if stayed and table.columns[key].values is not None:
            # Concatenation moved any memmap backing onto the heap.
            register_column(memory, table, key)
        else:
            memory.forget((table.name, table.columns[key].name))

    if entry.zone_maps is not None:
        entry.zone_maps = entry.zone_maps.extended(new_nrows, appended_idx)
    return True
