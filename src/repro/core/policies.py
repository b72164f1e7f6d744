"""Loading policies: the strategies of sections 3-4 as one mechanism.

A :class:`LoadingPolicy` receives one query's requirements for one table —
needed columns and the conjunctive range condition — and returns a
:class:`TableView` of column vectors the executor can run on.  The six
policies differ in two things only: what the first pass over the raw file
reads, and what of it outlives the query.  Each is one record of
:data:`POLICIES`:

================  =============  =========  ==================================================
policy            first pass     keeps      models
================  =============  =========  ==================================================
``fullload``      column pass    columns    classic DBMS: first touch loads everything
``external``      external pass  nothing    MySQL CSV engine: re-parse whole rows every query
``column_loads``  column pass    columns    load whole missing columns on demand (section 3.2)
``partial_v1``    partial pass   nothing    pushdown loading, discard after query (section 3.2)
``partial_v2``    partial pass   fragments  pushdown loading, keep + reuse fragments (section 4)
``splitfiles``    split pass     columns    file cracking: split-as-you-load (section 4)
================  =============  =========  ==================================================

``fullload`` alone sets ``loads_all_cold``: while its table is cold, the
column pass loads every column, not just the ones the query needs.

What a policy keeps decides its warm path too: kept ``columns`` serve
warm once fully resident (through a cracker once a range column is hot),
certified ``fragments`` serve warm when their certificates cover the
query, and a policy that keeps ``nothing`` reads the file every time.

The **universe convention**: a view presents either all table rows or only
rows qualifying the query's recognized range condition.  Both are sound
because the executor re-applies the full WHERE clause; conjunctive range
predicates are idempotent, and residual predicates always run after the
view is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from repro.config import EngineConfig
from repro.core.loader import PassResult, parse_widening, run_pass
from repro.core.monitor import CrackingAdvisor
from repro.core.splitfile import SplitFileCatalog
from repro.core.statistics import QueryStats
from repro.cracking.cracker import CrackerColumn
from repro.errors import ExecutionError
from repro.flatfile.dialects import DelimitedAdapter
from repro.flatfile.parser import ParseStats
from repro.ranges import Condition, ValueInterval
from repro.storage.catalog import TableEntry
from repro.storage.memory import MemoryManager
from repro.storage.partial import CoverageCertificate, PartialColumn
from repro.storage.table import Table
from repro.strings import StringColumn


@dataclass
class LoadContext:
    """Everything a policy needs to satisfy one query on one table."""

    entry: TableEntry
    needed: list[str]
    condition: Condition
    config: EngineConfig
    memory: MemoryManager
    qstats: QueryStats
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
    arrays: dict[str, np.ndarray | StringColumn]
    went_to_file: bool = False

    @property
    def served_from_store(self) -> bool:
        return not self.went_to_file

    def get_column(self, name: str) -> np.ndarray | StringColumn:
        try:
            return self.arrays[name.lower()]
        except KeyError:
            raise ExecutionError(
                f"column {name!r} was not provided by the loading policy"
            ) from None


# ---------------------------------------------------------------------------
# first passes: what a cold query reads from the raw file
# ---------------------------------------------------------------------------


def column_pass(ctx: LoadContext, columns: list[str]) -> PassResult:
    """Load the given columns completely, in one pass over the file."""
    return run_pass(ctx.entry, columns, None, ctx.config, parse_all_rows=True)


def external_pass(ctx: LoadContext, columns: list[str]) -> PassResult:
    """The CSV-engine pass: tokenize whole rows, parse the needed columns."""
    return run_pass(
        ctx.entry, columns, None, ctx.config, parse_all_rows=True, tokenize_everything=True
    )


def partial_pass(ctx: LoadContext, columns: list[str]) -> PassResult:
    """Load only the rows qualifying the pushed-down range condition."""
    return run_pass(ctx.entry, columns, ctx.condition, ctx.config, parse_all_rows=False)


def split_pass(ctx: LoadContext, columns: list[str]) -> PassResult:
    """Load the given columns completely through the entry's split files.

    The :class:`~repro.core.splitfile.SplitFileCatalog` reads single
    files when earlier passes already split the columns out, and splits
    remainders as a side effect otherwise; it is created on first use
    (the caller holds the table write lock).  Splitting re-slices raw
    rows with delimiter arithmetic, which only the plain delimited
    dialect supports: on any other dialect this is the column pass (same
    results, no cracking).
    """
    entry = ctx.entry
    if not isinstance(entry.file.adapter, DelimitedAdapter):
        return column_pass(ctx, columns)
    schema = entry.ensure_schema()
    if entry.split_catalog is None:
        skip = 1 if entry.has_header else 0
        entry.split_catalog = SplitFileCatalog(entry.file, len(schema), skip)
    fetched = entry.split_catalog.fetch_columns([schema.index_of(n) for n in columns])
    ctx.qstats.split_files_written += fetched.files_written
    parse = ParseStats()
    values = {}
    for name in columns:
        idx = schema.index_of(name)
        values[name] = parse_widening(entry, idx, fetched.fields[idx], parse)
    nrows = len(next(iter(fetched.fields.values())))
    return PassResult(nrows, values, np.arange(nrows, dtype=np.int64), fetched.stats, parse)


# ---------------------------------------------------------------------------
# the policy record
# ---------------------------------------------------------------------------

#: What outlives the query: ``nothing``, whole ``columns``, or certified
#: ``fragments`` (the qualifying rows, with the condition that chose them).
Keeps = Literal["nothing", "columns", "fragments"]


@dataclass(frozen=True)
class LoadingPolicy:
    """One loading policy: its first pass and its retention rule."""

    name: str
    first_pass: Callable[[LoadContext, list[str]], PassResult]
    keeps: Keeps
    #: A cold table's first pass loads every column (``fullload``).
    loads_all_cold: bool = False

    def try_serve_warm(self, ctx: LoadContext) -> TableView | None:
        """Serve the query purely from what this policy keeps, or decline.

        Called by the engine under the table's shared *read* lock, so it
        must not mutate the entry, the store or the positional map — the
        only side effects allowed are memory-manager pins/touches (and a
        cracker's own state, under ``entry.cracker_lock``).  Returning
        ``None`` sends the caller to the exclusive load path.
        """
        table = ctx.entry.table
        if table is None or self.keeps == "nothing":
            return None
        if self.keeps == "fragments":
            # Certificates only ever change under the table write lock,
            # but eviction does not hold it: pinning every needed column
            # freezes the fragments the coverage check relies on.
            if _pinned(ctx, table, ctx.needed, full=False) is None or not _covered(ctx, table):
                return None
            return _fragments_view(ctx, table)
        view = _warm_cracked(ctx, table)
        if view is None and _pinned(ctx, table, ctx.needed, full=True) is not None:
            view = _columns_view(ctx, table)
        return view

    def provide(self, ctx: LoadContext) -> TableView:
        """Serve the query, running the first pass for what is not kept
        (the caller holds the table's write lock)."""
        entry = ctx.entry
        table = entry.table
        columns = list(ctx.needed)
        if self.keeps == "columns":
            if table is None and self.loads_all_cold:
                columns = entry.ensure_schema().names
            elif table is not None:
                columns = [n for n in columns if not table.column(n).is_fully_loaded]
                if not columns:
                    return _columns_view(ctx, table)
        elif self.keeps == "fragments" and table is not None and _covered(ctx, table):
            return _fragments_view(ctx, table)
        result = self.first_pass(ctx, columns)
        table = entry.ensure_table(result.nrows)
        ctx.qstats.tokenizer.merge(result.tokenizer)
        ctx.qstats.parse.merge(result.parse)
        ctx.qstats.zone_map_skips += result.zone_map_skips
        if self.keeps == "nothing":
            return _pass_view(result)
        certificate = CoverageCertificate(
            Condition() if result.is_full_rows else ctx.condition
        )
        for name, values in result.columns.items():
            pc = table.column(name)
            if self.keeps == "columns":
                ctx.qstats.rows_loaded += pc.store_full(values)
            else:
                ctx.qstats.rows_loaded += pc.store(result.row_ids, values)
                pc.add_certificate(certificate)
            ctx.pinned_keys.append(register_column(ctx.memory, table, name, pinned=True))
        if self.keeps == "columns":
            return _columns_view(ctx, table, went_to_file=True)
        return _pass_view(result)


#: The six policies, by their :data:`repro.config.POLICIES` names.
POLICIES: dict[str, LoadingPolicy] = {
    p.name: p
    for p in (
        LoadingPolicy("fullload", column_pass, "columns", loads_all_cold=True),
        LoadingPolicy("external", external_pass, "nothing"),
        LoadingPolicy("column_loads", column_pass, "columns"),
        LoadingPolicy("partial_v1", partial_pass, "nothing"),
        LoadingPolicy("partial_v2", partial_pass, "fragments"),
        LoadingPolicy("splitfiles", split_pass, "columns"),
    )
}


def make_policy(name: str) -> LoadingPolicy:
    """The policy record of a :data:`repro.config.POLICIES` name."""
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {sorted(POLICIES)}"
        ) from None


def _pass_view(result: PassResult) -> TableView:
    """The rows one pass read, straight from the file."""
    return TableView(
        nrows=len(result.row_ids),
        arrays={k.lower(): v for k, v in result.columns.items()},
        went_to_file=True,
    )


def _columns_view(ctx: LoadContext, table: Table, went_to_file: bool = False) -> TableView:
    """Every needed column, fully resident in the store."""
    arrays = {}
    for name in ctx.needed:
        pc = table.column(name)
        if not pc.is_fully_loaded:
            raise ExecutionError(f"internal: column {name!r} expected fully loaded")
        ctx.memory.touch((table.name, pc.name))
        arrays[name.lower()] = pc.values
    return TableView(nrows=table.nrows, arrays=arrays, went_to_file=went_to_file)


def _fragments_view(ctx: LoadContext, table: Table) -> TableView:
    """The qualifying rows of certified fragments that cover the query."""
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
    return TableView(nrows=len(row_ids), arrays=arrays)


def _covered(ctx: LoadContext, table: Table) -> bool:
    """Every needed column holds a certificate the query's condition implies."""
    for name in ctx.needed:
        pc = table.columns.get(name.lower())
        if pc is None or not pc.covers_query(ctx.condition):
            return False
    return True


# ---------------------------------------------------------------------------
# the warm path
# ---------------------------------------------------------------------------


def _pinned(
    ctx: LoadContext, table: Table, names: list[str], full: bool
) -> dict[str, PartialColumn] | None:
    """Pin each named column before inspecting it, so a concurrent
    eviction (which runs under the memory manager's lock, not the table
    lock) cannot drop it between the check and the snapshot; ``None``
    when one is not resident (or, with ``full``, not fully loaded)."""
    pcs = {}
    for name in dict.fromkeys(n.lower() for n in names):
        pc = table.columns.get(name)
        if pc is None or not ctx.pin((table.name, pc.name)):
            return None
        if full and (not pc.is_fully_loaded or pc.values is None):
            return None
        pcs[name] = pc
    return pcs


def _warm_cracked(ctx: LoadContext, table: Table) -> TableView | None:
    """Serve a range query through a cracked column, or decline.

    The warm-path strategy above plain masks: once the advisor has
    seen ``config.crack_after`` warm range scans against a fully
    resident numeric column, a :class:`CrackerColumn` copy of it is
    built, and range selections are answered by cracker-index binary
    search plus at most two edge-piece partitions — O(result) work
    instead of O(rows) masks.

    The cracker owns a copy of the base column and is only mutated under
    ``entry.cracker_lock``, so the read-lock contract (no entry, store or
    posmap mutation) holds.  The returned view presents the cracked slice
    in file order: the rows of the cracked column's interval, plus the
    NaN rows a one-sided interval keeps right of its cut.  The executor
    re-applies every WHERE conjunct, which drops those and filters on the
    other condition columns.
    """
    cfg = ctx.config
    if not cfg.cracking or ctx.advisor is None or ctx.condition.is_trivial():
        return None
    entry = ctx.entry
    # Every column the query touches: needed plus all condition columns.
    pcs = _pinned(ctx, table, ctx.needed + [c for c, _ in ctx.condition.items], full=True)
    if pcs is None:
        return None
    crack_on = None
    for col, interval in ctx.condition.items:
        values = pcs[col].values  # a numeric column's values are an array
        if isinstance(values, np.ndarray) and _crackable(interval, values.dtype.kind):
            crack_on = (col, interval, values)
            break
    if crack_on is None:
        return None
    col, interval, values = crack_on
    hot = ctx.advisor.note_range_scan(entry.name.lower(), col)
    if hot < cfg.crack_after and col not in entry.crackers:
        return None  # not hot enough yet: the mask route serves
    key = entry.cracker_key(col)
    with entry.cracker_lock:
        cracker = entry.crackers.get(col)
        if cracker is None:
            cracker = CrackerColumn(values)
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
    return TableView(nrows=len(rowids), arrays=arrays)


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
