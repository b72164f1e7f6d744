"""Loading policies: the strategies of sections 3-4 behind one interface.

A :class:`LoadingPolicy` receives one query's requirements for one table —
needed columns and the conjunctive range condition — and returns a
:class:`TableView` of column vectors the executor can run on.  How much of
the raw file gets touched, what is kept in the adaptive store, and what a
repeat query will cost are entirely the policy's business:

========================  ====================================================
``fullload``              classic DBMS: first touch loads everything
``external``              MySQL CSV engine: re-parse whole rows every query
``column_loads``          load whole missing columns on demand (section 3.2)
``partial_v1``            pushdown loading, discard after query (section 3.2)
``partial_v2``            pushdown loading, keep + reuse fragments (section 4)
``splitfiles``            file cracking: split-as-you-load (section 4)
========================  ====================================================

The **universe convention**: a view presents either all table rows or only
rows qualifying the query's recognized range condition.  Both are sound
because the executor re-applies the full WHERE clause; conjunctive range
predicates are idempotent, and residual predicates always run after the
view is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import EngineConfig
from repro.core.loader import (
    PassResult,
    column_load_pass,
    external_pass,
    full_load_pass,
    parse_widening,
    partial_load_pass,
)
from repro.core.monitor import CrackingAdvisor
from repro.core.splitfile import SplitFileCatalog
from repro.core.statistics import QueryStats
from repro.cracking.cracker import CrackerColumn
from repro.errors import ExecutionError
from repro.ranges import Condition, ValueInterval
from repro.storage.catalog import TableEntry
from repro.storage.memory import MemoryManager
from repro.storage.partial import CoverageCertificate
from repro.storage.table import Table


@dataclass
class LoadContext:
    """Everything a policy needs to satisfy one query on one table."""

    entry: TableEntry
    needed: list[str]
    condition: Condition
    config: EngineConfig
    memory: MemoryManager
    qstats: QueryStats
    split: SplitFileCatalog | None = None
    #: The engine monitor's cracking advisor (None in bare-policy tests:
    #: the warm path then never cracks).
    advisor: CrackingAdvisor | None = None
    #: Memory-manager pins this context holds; the engine releases them
    #: (one :meth:`MemoryManager.unpin` each) once the view is built.
    pinned_keys: list[tuple[str, str]] = field(default_factory=list)

    def pin(self, key: tuple[str, str]) -> bool:
        """Pin a fragment for the duration of this context; record it."""
        if self.memory.pin(key):
            self.pinned_keys.append(key)
            return True
        return False


@dataclass
class TableView:
    """Column vectors presented to the executor for one table."""

    nrows: int
    arrays: dict[str, np.ndarray]
    served_from_store: bool = False
    went_to_file: bool = False

    def get_column(self, name: str) -> np.ndarray:
        try:
            return self.arrays[name.lower()]
        except KeyError:
            raise ExecutionError(
                f"column {name!r} was not provided by the loading policy"
            ) from None


class LoadingPolicy:
    """Base class; subclasses implement :meth:`provide`."""

    name = "abstract"

    def provide(self, ctx: LoadContext) -> TableView:  # pragma: no cover
        raise NotImplementedError

    def try_serve_warm(self, ctx: LoadContext) -> TableView | None:
        """Serve the query purely from resident fragments, or decline.

        Called by the engine under the table's shared *read* lock, so it
        must not mutate the entry, the store or the positional map — the
        only side effects allowed are memory-manager pins/touches.
        Returning ``None`` sends the caller to the exclusive load path.
        Stateless policies (``external``, ``partial_v1``) keep nothing
        and therefore never serve warm.
        """
        return None

    # ------------------------------------------------------------ helpers

    @staticmethod
    def _warm_full_columns(ctx: LoadContext) -> TableView | None:
        """Read-only store probe: every needed column fully resident.

        Pins each fragment *before* inspecting it so a concurrent
        eviction (which runs under the memory manager's lock, not the
        table lock) cannot drop a column between the check and the
        snapshot.  Any miss declines — the load path re-checks under the
        write lock.
        """
        table = ctx.entry.table
        if table is None:
            return None
        arrays: dict[str, np.ndarray] = {}
        for name in ctx.needed:
            pc = table.columns.get(name.lower())
            if pc is None:
                return None
            key = (table.name, pc.name)
            if not ctx.pin(key):
                return None
            if not pc.is_fully_loaded or pc.values is None:
                return None
            ctx.memory.touch(key)
            arrays[name.lower()] = pc.values
        return TableView(
            nrows=table.nrows,
            arrays=arrays,
            served_from_store=True,
            went_to_file=False,
        )

    @staticmethod
    def _warm_cracked(ctx: LoadContext) -> TableView | None:
        """Serve a range query through a cracked column, or decline.

        The warm-path strategy above plain masks: once the advisor has
        seen ``config.crack_after`` warm range scans against a fully
        resident numeric column, a :class:`CrackerColumn` copy of it is
        built, and range selections are answered by cracker-index binary
        search plus at most two edge-piece partitions — O(result) work
        instead of O(rows) masks.

        Runs under the shared *read* lock like every warm serve.  The
        cracker owns a copy of the base column and is only mutated under
        ``entry.cracker_lock``, so the read-lock contract (no entry,
        store or posmap mutation) holds.  The returned view presents the
        cracked slice in file order: the rows of the cracked column's
        interval, plus the NaN rows a one-sided interval keeps right of
        its cut.  The executor re-applies every WHERE conjunct, which
        drops those and filters on the other condition columns.
        """
        cfg = ctx.config
        if not cfg.cracking or ctx.advisor is None or ctx.condition.is_trivial():
            return None
        entry = ctx.entry
        table = entry.table
        if table is None:
            return None
        # Pin-then-check every column the query touches (needed plus all
        # condition columns), exactly like _warm_full_columns: any miss
        # declines to the load path.
        cond_cols = [c for c, _ in ctx.condition.items]
        pcs = {}
        for name in dict.fromkeys([n.lower() for n in ctx.needed] + cond_cols):
            pc = table.columns.get(name)
            if pc is None or not ctx.pin((table.name, pc.name)):
                return None
            if not pc.is_fully_loaded or pc.values is None:
                return None
            pcs[name] = pc
        crack_on = None
        for col, interval in ctx.condition.items:
            pc = pcs[col]
            if pc.dtype.is_numeric and _crackable(interval, pc.values.dtype.kind):
                crack_on = (col, interval)
                break
        if crack_on is None:
            return None
        col, interval = crack_on
        hot = ctx.advisor.note_range_scan(entry.name.lower(), col)
        if hot < cfg.crack_after and col not in entry.crackers:
            return None  # not hot enough yet: the mask route serves
        key = entry.cracker_key(col)
        with entry.cracker_lock:
            cracker = entry.crackers.get(col)
            if cracker is None:
                cracker = CrackerColumn(pcs[col].values)
                entry.crackers[col] = cracker
                ctx.memory.register(
                    key,
                    cracker.values.nbytes + cracker.rowids.nbytes,
                    dropper=lambda e=entry, c=col: e.crackers.pop(c, None),
                    pinned=True,
                )
                ctx.pinned_keys.append(key)
            elif ctx.pin(key):
                ctx.memory.touch(key)
            else:
                # Evicted between the dict read and the pin: drop the
                # orphan and let a later query rebuild.
                entry.crackers.pop(col, None)
                return None
            before = cracker.stats.cracks
            rowids = np.sort(cracker.select_rowids(interval))
            ctx.qstats.cracks += cracker.stats.cracks - before
        arrays = {}
        for name in ctx.needed:
            pc = pcs[name.lower()]
            ctx.memory.touch((table.name, pc.name))
            arrays[name.lower()] = pc.values[rowids]
        ctx.qstats.served_by_cracker = True
        return TableView(
            nrows=len(rowids),
            arrays=arrays,
            served_from_store=True,
            went_to_file=False,
        )

    @staticmethod
    def _absorb_pass(ctx: LoadContext, result: PassResult) -> None:
        ctx.qstats.tokenizer.merge(result.tokenizer)
        ctx.qstats.parse.merge(result.parse)
        ctx.qstats.went_to_file = True
        ctx.qstats.zone_map_skips += result.zone_map_skips

    @staticmethod
    def _store_full_columns(
        ctx: LoadContext, table: Table, result: PassResult
    ) -> None:
        """Store completely loaded columns and register them for eviction."""
        for name, values in result.columns.items():
            ctx.qstats.rows_loaded += table.column(name).store_full(values)
            ctx.pinned_keys.append(register_column(ctx.memory, table, name, pinned=True))

    @staticmethod
    def _view_from_store(
        ctx: LoadContext, table: Table, served_from_store: bool, went_to_file: bool
    ) -> TableView:
        arrays = {}
        for name in ctx.needed:
            pc = table.column(name)
            if not pc.is_fully_loaded:
                raise ExecutionError(
                    f"internal: column {name!r} expected fully loaded"
                )
            ctx.memory.touch((table.name, pc.name))
            arrays[name.lower()] = pc.values
        return TableView(
            nrows=table.nrows,
            arrays=arrays,
            served_from_store=served_from_store,
            went_to_file=went_to_file,
        )


def _crackable(interval: ValueInterval, kind: str) -> bool:
    """Can a cracker over a column of dtype ``kind`` answer this interval?

    Needs at least one finite, non-bool numeric bound (NaN pivots are
    refused by the cracker).  A bound of the other numeric kind than the
    column, of magnitude 2**53 or more, declines too: NumPy compares it
    with the column in float64, where neighbouring int64 values round
    together, while the cracker orders its cuts by Python's exact
    comparison, so the cut positions would stop being monotone.
    """
    if interval.lo is None and interval.hi is None:
        return False
    for bound in (interval.lo, interval.hi):
        if bound is None:
            continue
        if isinstance(bound, bool) or not isinstance(
            bound, (int, float, np.integer, np.floating)
        ):
            return False
        is_float = isinstance(bound, (float, np.floating))
        if is_float and math.isnan(bound):
            return False
        if is_float != (kind == "f") and abs(bound) >= 2**53:
            return False
    return True


def register_column(
    memory: MemoryManager, table: Table, name: str, *, pinned: bool = False
) -> tuple[str, str]:
    """Charge a resident column to the memory budget; returns its key.

    Evicting it drops the column's values.  ``mapped`` tracks whether the
    column is (still) backed by a persistent-store memmap rather than
    heap bytes.  A loading query registers its columns ``pinned`` (the
    engine releases the context's pins once the views are built), so it
    cannot evict its own data.
    """
    pc = table.column(name)
    key = (table.name, pc.name)
    memory.register(key, pc.logical_nbytes, pc.drop, pinned=pinned, mapped=pc.is_mapped)
    return key


# ---------------------------------------------------------------------------
# fullload
# ---------------------------------------------------------------------------


class FullLoadPolicy(LoadingPolicy):
    """Load the complete table on first touch — the DBMS baseline."""

    name = "fullload"

    def try_serve_warm(self, ctx: LoadContext) -> TableView | None:
        return self._warm_cracked(ctx) or self._warm_full_columns(ctx)

    def provide(self, ctx: LoadContext) -> TableView:
        entry = ctx.entry
        went_to_file = False
        if entry.table is None:
            result = full_load_pass(entry, ctx.config)
            table = entry.ensure_table(result.nrows)
            self._absorb_pass(ctx, result)
            self._store_full_columns(ctx, table, result)
            went_to_file = True
        table = entry.table
        missing = [n for n in ctx.needed if not table.column(n).is_fully_loaded]
        if missing:  # possible after eviction or a partial store restore
            result = column_load_pass(entry, missing, ctx.config)
            self._absorb_pass(ctx, result)
            self._store_full_columns(ctx, table, result)
            went_to_file = True
        return self._view_from_store(
            ctx, table, served_from_store=not went_to_file, went_to_file=went_to_file
        )


# ---------------------------------------------------------------------------
# external
# ---------------------------------------------------------------------------


class ExternalTablePolicy(LoadingPolicy):
    """Re-parse the flat file on every query; remember nothing.

    Models the MySQL CSV engine: a row engine that materializes whole
    tuples (tokenizes every field), converts what the query needs, and
    keeps no state between queries.
    """

    name = "external"

    def provide(self, ctx: LoadContext) -> TableView:
        result = external_pass(ctx.entry, ctx.needed, ctx.config)
        self._absorb_pass(ctx, result)
        ctx.entry.ensure_table(result.nrows)  # schema/row-count bookkeeping only
        return TableView(
            nrows=result.nrows,
            arrays={k.lower(): v for k, v in result.columns.items()},
            served_from_store=False,
            went_to_file=True,
        )


# ---------------------------------------------------------------------------
# column loads
# ---------------------------------------------------------------------------


class ColumnLoadsPolicy(LoadingPolicy):
    """Adaptive loading at column granularity (Figure 3/4 "Column Loads")."""

    name = "column_loads"

    def try_serve_warm(self, ctx: LoadContext) -> TableView | None:
        return self._warm_cracked(ctx) or self._warm_full_columns(ctx)

    def provide(self, ctx: LoadContext) -> TableView:
        entry = ctx.entry
        table = entry.table
        if table is None:
            missing = list(ctx.needed)
        else:
            missing = [n for n in ctx.needed if not table.column(n).is_fully_loaded]
        went_to_file = False
        if missing:
            result = column_load_pass(entry, missing, ctx.config)
            table = entry.ensure_table(result.nrows)
            self._absorb_pass(ctx, result)
            self._store_full_columns(ctx, table, result)
            went_to_file = True
        return self._view_from_store(
            ctx, entry.table, served_from_store=not went_to_file, went_to_file=went_to_file
        )


# ---------------------------------------------------------------------------
# partial loads V1
# ---------------------------------------------------------------------------


class PartialLoadsV1Policy(LoadingPolicy):
    """Selection-pushdown loading that discards everything after the query.

    "Partial Loads throws away the data immediately after every query ...
    never paying the I/O cost to write the data back to disk and always
    reading just enough from the file."  Cheapest possible single query,
    zero benefit for the next one.
    """

    name = "partial_v1"

    def provide(self, ctx: LoadContext) -> TableView:
        result = partial_load_pass(ctx.entry, ctx.needed, ctx.condition, ctx.config)
        self._absorb_pass(ctx, result)
        ctx.entry.ensure_table(result.nrows)
        return TableView(
            nrows=len(result.row_ids),
            arrays={k.lower(): v for k, v in result.columns.items()},
            served_from_store=False,
            went_to_file=True,
        )


# ---------------------------------------------------------------------------
# partial loads V2
# ---------------------------------------------------------------------------


class PartialLoadsV2Policy(LoadingPolicy):
    """Pushdown loading that *keeps* fragments and reuses them.

    The table of contents is the certificate machinery of
    :mod:`repro.storage.partial`: a query is served from the store when
    every needed column holds a certificate implied by the query's range
    condition (repeat queries, zoom-ins); otherwise one partial pass loads
    the qualifying rows, stores them, and certifies them for the future.
    """

    name = "partial_v2"

    def try_serve_warm(self, ctx: LoadContext) -> TableView | None:
        table = ctx.entry.table
        if table is None:
            return None
        # Pin first: certificates only ever change under the table write
        # lock, but eviction does not hold it — pinning every needed
        # column freezes the fragments the coverage check relies on.
        for name in ctx.needed:
            pc = table.columns.get(name.lower())
            if pc is None:
                return None
            if not ctx.pin((table.name, pc.name)):
                return None
        if not self._covered(table, ctx):
            return None
        return self._serve_from_store(ctx, table)

    def provide(self, ctx: LoadContext) -> TableView:
        entry = ctx.entry
        table = entry.table
        if table is not None and self._covered(table, ctx):
            return self._serve_from_store(ctx, table)
        result = partial_load_pass(entry, ctx.needed, ctx.condition, ctx.config)
        table = entry.ensure_table(result.nrows)
        self._absorb_pass(ctx, result)
        certificate = CoverageCertificate(
            Condition() if result.is_full_rows else ctx.condition
        )
        for name, values in result.columns.items():
            pc = table.column(name)
            newly = pc.store(result.row_ids, values)
            pc.add_certificate(certificate)
            ctx.qstats.rows_loaded += newly
            ctx.pinned_keys.append(register_column(ctx.memory, table, name, pinned=True))
        return TableView(
            nrows=len(result.row_ids),
            arrays={k.lower(): v for k, v in result.columns.items()},
            served_from_store=False,
            went_to_file=True,
        )

    @staticmethod
    def _covered(table: Table, ctx: LoadContext) -> bool:
        for name in ctx.needed:
            key = name.lower()
            pc = table.columns.get(key)
            if pc is None or not pc.covers_query(ctx.condition):
                return False
        return True

    def _serve_from_store(self, ctx: LoadContext, table: Table) -> TableView:
        mask = np.ones(table.nrows, dtype=bool)
        for col, interval in ctx.condition.items:
            pc = table.column(col)
            mask &= pc.qualifying_mask(interval)
            ctx.memory.touch((table.name, pc.name))
        row_ids = np.nonzero(mask)[0].astype(np.int64)
        arrays = {}
        for name in ctx.needed:
            pc = table.column(name)
            ctx.memory.touch((table.name, pc.name))
            arrays[name.lower()] = pc.values_at(row_ids)
        return TableView(
            nrows=len(row_ids),
            arrays=arrays,
            served_from_store=True,
            went_to_file=False,
        )


# ---------------------------------------------------------------------------
# split files
# ---------------------------------------------------------------------------


class SplitFilesPolicy(LoadingPolicy):
    """Column loads over an adaptively cracked file (Figure 4 "Split Files").

    Missing columns are fetched through the
    :class:`~repro.core.splitfile.SplitFileCatalog`, which reads single
    files when earlier passes already split the needed columns out, and
    splits remainders as a side effect otherwise.
    """

    name = "splitfiles"

    def try_serve_warm(self, ctx: LoadContext) -> TableView | None:
        return self._warm_cracked(ctx) or self._warm_full_columns(ctx)

    def provide(self, ctx: LoadContext) -> TableView:
        entry = ctx.entry
        if ctx.split is None:
            raise ExecutionError("splitfiles policy requires a split catalog")
        schema = entry.ensure_schema()
        table = entry.table
        if table is None:
            missing = list(ctx.needed)
        else:
            missing = [n for n in ctx.needed if not table.column(n).is_fully_loaded]
        went_to_file = False
        if missing:
            went_to_file = True
            indices = [schema.index_of(n) for n in missing]
            fetched = ctx.split.fetch_columns(indices)
            ctx.qstats.tokenizer.merge(fetched.stats)
            ctx.qstats.went_to_file = True
            ctx.qstats.split_files_written += fetched.files_written
            nrows = len(next(iter(fetched.fields.values())))
            table = entry.ensure_table(nrows)
            for name in missing:
                idx = schema.index_of(name)
                values = parse_widening(
                    entry, idx, fetched.fields[idx], ctx.qstats.parse
                )
                ctx.qstats.rows_loaded += table.column(name).store_full(values)
                ctx.pinned_keys.append(register_column(ctx.memory, table, name, pinned=True))
        return self._view_from_store(
            ctx, ctx.entry.table, served_from_store=not went_to_file, went_to_file=went_to_file
        )


_POLICY_CLASSES: dict[str, type[LoadingPolicy]] = {
    cls.name: cls
    for cls in (
        FullLoadPolicy,
        ExternalTablePolicy,
        ColumnLoadsPolicy,
        PartialLoadsV1Policy,
        PartialLoadsV2Policy,
        SplitFilesPolicy,
    )
}


def make_policy(name: str) -> LoadingPolicy:
    """Instantiate a policy by its :data:`repro.config.POLICIES` name."""
    try:
        return _POLICY_CLASSES[name]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {sorted(_POLICY_CLASSES)}"
        ) from None
