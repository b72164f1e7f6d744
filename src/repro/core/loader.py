"""Adaptive load operators (paper section 3).

These are the operators the paper plugs into MonetDB query plans; here they
are functions invoked by the loading policies before execution.  Each
operator makes one pass over a raw file (or split files) and returns typed
column arrays plus the work counters the statistics layer aggregates:

* :func:`full_load_pass` — the classic loader: tokenize and parse every
  column of every row (the MonetDB baseline of every figure).
* :func:`column_load_pass` — load a *subset* of columns in one go
  ("one adaptive load operator to bring in one go all missing columns").
* :func:`partial_load_pass` — load only rows qualifying pushed-down
  predicates (Partial Loads; section 3.2's early row abandonment).
* :func:`external_pass` — the MySQL-CSV-engine behaviour: tokenize whole
  rows, parse what the query needs, remember nothing.

All passes discover the table's row count as a side effect, feed the
positional map when enabled, and honour the tokenizer ablation toggles in
:class:`~repro.config.EngineConfig`.

Three routes exist through :func:`run_pass`:

* the **full-scan route** reads the whole file and tokenizes selectively
  (the behaviour of every paper figure);
* the **selective-read route** (section 4.1.5 taken to its conclusion)
  activates when the positional map already knows the byte range of every
  field the pass needs: only those ranges are read from the file, in
  coalesced window reads, and the fields are gathered vectorized — a
  repeat query touches strictly less of the file than its first run;
* the **partitioned parallel route** (:mod:`repro.core.partitions`)
  activates for cold scans of large files when ``parallel_workers > 1``:
  the file is split into newline-aligned row-range partitions scanned by
  a process pool, and the per-partition results are merged back into the
  exact output the serial full-scan route would have produced.

Typed parsing is widening: a value that does not fit the inferred column
type (e.g. a float deep in a column sampled as int) widens the column —
int64 → float64 → str — and retries, instead of failing the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.config import EngineConfig
from repro.errors import FlatFileError
from repro.flatfile.files import coalesce_ranges
from repro.flatfile.parser import ParseStats, parse_fields, parse_single
from repro.flatfile.positions import PositionalMap
from repro.flatfile.schema import WIDENS_TO, ColumnSchema, DataType, TableSchema
from repro.flatfile.tokenizer import (
    RawPredicate,
    TokenizerStats,
    gather_fields,
    tokenize_bytes,
)
from repro.core.zonemaps import ZoneMapIndex
from repro.ranges import Condition, ValueInterval
from repro.storage.catalog import TableEntry
from repro.strings import StringColumn

#: Selective reads merge byte ranges closer than this into one window
#: read: a few wasted bytes beat one more seek+read call.
SELECTIVE_READ_MAX_GAP = 4


@dataclass
class PassResult:
    """Typed output of one adaptive-loading pass over a raw file."""

    nrows: int  # total data rows in the file
    columns: dict[str, "np.ndarray | StringColumn"]  # column name -> parsed values
    row_ids: np.ndarray  # global row ids the values correspond to
    tokenizer: TokenizerStats = field(default_factory=TokenizerStats)
    parse: ParseStats = field(default_factory=ParseStats)
    partitions: int = 0  # row-range partitions scanned in parallel (0 = serial)
    zone_map_skips: int = 0  # zones skipped by zone-map pruning

    @property
    def is_full_rows(self) -> bool:
        return len(self.row_ids) == self.nrows


#: Widening ladder for values the inferred type cannot represent (shared
#: with the pushdown predicates and the parallel partition workers).
_WIDER: dict[DataType, DataType] = WIDENS_TO


def _widen_column(entry: TableEntry, idx: int, to_dtype: DataType) -> None:
    """Widen column ``idx`` of ``entry`` to ``to_dtype``, store included.

    The adaptive store's copy of the column is converted in place when the
    widening is numeric (int64 → float64) and dropped otherwise — the
    paper's lifetime principle makes dropping always legal, at worst one
    reload away.
    """
    schema = entry.schema
    current = schema.columns[idx]
    if current.dtype is to_dtype:
        return
    schema.columns[idx] = ColumnSchema(current.name, to_dtype)
    if entry.zone_maps is not None:
        # Min/max learned under the narrower type no longer describe the
        # values predicates will compare against; relearn on a later pass.
        entry.zone_maps.drop_column(idx)
    if entry.table is not None:
        pc = entry.table.columns.get(current.name.lower())
        if pc is not None:
            pc.widen(to_dtype)


def parse_widening(
    raw,
    get_dtype: Callable[[], DataType],
    widen: Callable[[DataType], None],
    parse_stats: ParseStats,
) -> np.ndarray | StringColumn:
    """Parse raw fields under the current type; on failure ``widen`` one
    ladder step (int64 → float64 → str, so this ends) and re-parse all of
    them.  Each attempt counts every value: re-parsing is real work."""
    while True:
        dtype = get_dtype()
        try:
            return parse_fields(raw, dtype, parse_stats)
        except FlatFileError:
            wider = _WIDER.get(dtype)
            if wider is None:
                raise
            widen(wider)


def parse_column_with_widening(
    entry: TableEntry, idx: int, raw, parse_stats: ParseStats
) -> np.ndarray | StringColumn:
    """Parse raw fields under the schema type, widening the schema.

    A valid CSV whose sampled type was too narrow (a float or a string
    past the schema-inference sample window) must not make the column
    unqueryable: :func:`parse_widening` over the real schema.
    """
    return parse_widening(
        raw,
        lambda: entry.schema.columns[idx].dtype,
        lambda wider: _widen_column(entry, idx, wider),
        parse_stats,
    )


@dataclass
class WideningPredicate:
    """One raw-text pushdown predicate over the widening ladder.

    The single source of truth for predicate semantics, shared by the
    serial loader and the parallel partition workers (which must stay
    behaviourally identical).  It has two forms:

    * ``pred(text)`` — per value, for the dialect loop only:
      parse the field under the current type, and on a value the type
      cannot represent call ``widen`` with the next ladder step and retry;
    * ``pred.mask(values)`` — per column, for the bulk kernel and the
      selective-read route: :func:`parse_widening` over the whole array,
      then one :meth:`~repro.ranges.ValueInterval.mask`.

    Both count every conversion in ``parse_stats`` (conversions are real
    work) and raise :class:`~repro.errors.FlatFileError`, never a raw
    ``ValueError`` or ``TypeError``, on a field they cannot parse or
    compare.  A column that widens mid-way compares its earlier values
    at the narrower type per value, but all of them at the wider type in
    bulk.  ``get_dtype``/``widen`` abstract where the column type lives:
    the real schema serially, partition-local state in a worker.
    """

    column_name: str
    interval: ValueInterval
    get_dtype: Callable[[], DataType]
    widen: Callable[[DataType], None]
    parse_stats: ParseStats

    def __call__(self, text: str) -> bool:
        while True:
            dtype = self.get_dtype()
            self.parse_stats.values_parsed += 1
            try:
                value = parse_single(text, dtype)
                break
            except ValueError as exc:
                wider = _WIDER.get(dtype)
                if wider is None:
                    raise FlatFileError(
                        f"cannot parse field {text!r} of column "
                        f"{self.column_name!r} as {dtype.value} "
                        "for a pushdown predicate"
                    ) from exc
                self.widen(wider)
        try:
            return self.interval.contains_value(value)
        except TypeError as exc:
            # e.g. a str-widened field compared against numeric bounds.
            raise FlatFileError(
                f"cannot compare field {text!r} of column "
                f"{self.column_name!r} for a pushdown predicate"
            ) from exc

    def mask(self, values: np.ndarray) -> np.ndarray:
        if len(values) == 0:
            # Nothing to parse or compare; NumPy would still reject a type
            # mismatch over zero elements, which no per-value call sees.
            return np.zeros(0, dtype=bool)
        parsed = parse_widening(values, self.get_dtype, self.widen, self.parse_stats)
        try:
            return self.interval.mask(parsed)
        except TypeError as exc:
            raise FlatFileError(
                f"cannot compare column {self.column_name!r} as "
                f"{self.get_dtype().value} for a pushdown predicate"
            ) from exc


def _pushdown_predicates(
    entry: TableEntry,
    condition: Condition | None,
    config: EngineConfig,
    parse_stats: ParseStats,
) -> dict[int, RawPredicate]:
    """Build raw-text predicates for the tokenizer from a range condition.

    See :class:`WideningPredicate` for the per-predicate semantics;
    here each predicate reads and widens the *real* schema in place.
    """
    if condition is None or not config.predicate_pushdown:
        return {}
    schema = entry.ensure_schema()
    predicates = {}
    for col, interval in condition.items:
        idx = schema.index_of(col)
        predicates[idx] = WideningPredicate(
            schema.columns[idx].name,
            interval,
            get_dtype=lambda _idx=idx: schema.columns[_idx].dtype,
            widen=lambda wider, _idx=idx: _widen_column(entry, _idx, wider),
            parse_stats=parse_stats,
        )
    return predicates


def _needed_indices(schema: TableSchema, names: list[str]) -> list[int]:
    return sorted(schema.index_of(n) for n in names)


def run_pass(
    entry: TableEntry,
    needed: list[str],
    condition: Condition | None,
    config: EngineConfig,
    *,
    parse_all_rows: bool,
    tokenize_everything: bool = False,
) -> PassResult:
    """The shared tokenize-and-parse pass under all file-reading operators.

    Parameters
    ----------
    parse_all_rows:
        When True, predicates are *not* pushed into tokenization and every
        row's needed fields are parsed (column loads / full load).  When
        False, pushdown predicates filter rows during tokenization and
        only qualifying rows are parsed (partial loads).
    tokenize_everything:
        Tokenize all columns of every row regardless of need (the external
        -table behaviour, and the early-abort ablation).
    """
    from repro.core.partitions import parallel_pass, partitions_for

    schema = entry.ensure_schema()
    skip = 1 if entry.has_header else 0
    needed_idx = _needed_indices(schema, needed) if needed else [0]
    parse_stats = ParseStats()
    pushdown = (
        not tokenize_everything
        and not parse_all_rows
        and condition is not None
        and config.predicate_pushdown
    )
    if tokenize_everything:
        tokenize_idx = list(range(len(schema)))
        early_abort = False
    else:
        tokenize_idx = needed_idx
        early_abort = config.tokenizer_early_abort
    pushdown_items = list(condition.items) if pushdown else []
    pred_idx = [schema.index_of(c) for c, _ in pushdown_items]
    pmap = entry.positional_map if config.use_positional_map else None
    want_cols = sorted(set(tokenize_idx) | set(pred_idx))
    if (
        not tokenize_everything
        and config.selective_reads
        and pmap is not None
        and _can_read_selectively(pmap, want_cols)
    ):
        intervals = {schema.index_of(c): iv for c, iv in pushdown_items}
        candidates, zone_skips = _zone_candidates(
            entry, intervals, int(pmap.nrows), config
        )
        # Skip the full scan only when the windows over the zone
        # survivors save at least 1/16th of the file; otherwise one
        # sequential read beats many window reads of the same bytes.
        size = entry.file.size_bytes()
        covered = _coalesced_bytes(
            pmap, want_cols, candidates, SELECTIVE_READ_MAX_GAP
        )
        if covered < size - (size >> 4):
            predicates = _pushdown_predicates(
                entry, condition if pushdown else None, config, parse_stats
            )
            result = _selective_pass(
                entry,
                schema,
                needed,
                predicates,
                candidates,
                zone_skips,
                pmap,
                config,
                parse_stats,
            )
            _learn_zone_maps(entry, schema, result, config)
            return result
    pindex = partitions_for(entry, config)
    if pindex is not None:
        result = parallel_pass(
            entry,
            schema,
            needed,
            pushdown_items,
            config,
            pindex,
            tokenize_cols=want_cols,
            early_abort=early_abort,
        )
        if result is not None:  # None: pool failed to start -> serial
            _learn_zone_maps(entry, schema, result, config)
            return result
    predicates = _pushdown_predicates(
        entry, condition if pushdown else None, config, parse_stats
    )
    data = entry.file.read_all_bytes()
    result = tokenize_bytes(
        data,
        entry.file.adapter,
        ncols=len(schema),
        needed=want_cols,
        early_abort=early_abort,
        predicates=predicates,
        positional_map=pmap,
        learn=pmap is not None,
        skip_rows=skip,
        source=entry.file.path,
    )
    nrows = result.stats.rows_scanned
    columns: dict[str, np.ndarray] = {}
    for name in needed:
        idx = schema.index_of(name)
        raw = result.fields[idx]
        columns[schema.columns[idx].name] = parse_column_with_widening(
            entry, idx, raw, parse_stats
        )
    out = PassResult(
        nrows=nrows,
        columns=columns,
        row_ids=result.row_ids,
        tokenizer=result.stats,
        parse=parse_stats,
    )
    _learn_zone_maps(entry, schema, out, config)
    return out


# ---------------------------------------------------------------------------
# selective-read fast path
# ---------------------------------------------------------------------------


def _can_read_selectively(pmap: PositionalMap, cols: list[int]) -> bool:
    """The map knows the row count, the file is single-byte text (so
    character offsets are byte offsets), and every column the pass will
    touch is a known byte slice."""
    if pmap.nrows is None or not pmap.sliceable:
        return False
    return all(pmap.knows_column(c) for c in cols)


def _zone_candidates(
    entry: TableEntry,
    intervals: dict[int, ValueInterval],
    nrows: int,
    config: EngineConfig,
) -> tuple[np.ndarray, int]:
    """Rows the zone maps cannot rule out, and how many zones they skip.

    A zone is skipped when its min/max statistics prove a range predicate
    cannot match any of its rows.  Skipping is sound because zones only
    exist for columns whose every value parsed under the current schema
    type (a widening drops the column's zones), and the zone test uses
    the same comparison operators as the predicate itself.
    """
    candidates = np.arange(nrows, dtype=np.int64)
    zone_skips = 0
    zmi = entry.zone_maps if config.zone_maps else None
    if zmi is None or zmi.nrows != nrows:
        return candidates, zone_skips
    for col, interval in intervals.items():
        keep = zmi.zone_keep_mask(col, interval)
        if keep is None or bool(keep.all()):
            continue
        candidates = candidates[keep[zmi.zone_of_rows(candidates)]]
        zone_skips += int(len(keep) - keep.sum())
    return candidates, zone_skips


def _coalesced_bytes(
    pmap: PositionalMap, cols: list[int], rows: np.ndarray, max_gap: int
) -> int:
    """Bytes the coalesced windows over ``cols``' spans in ``rows`` cover.

    Row-major, the spans lie in file order: ``cols`` left to right within
    a row, then the next row.  Over a sorted, non-overlapping sequence
    the windows are exactly the span from the first start to the last
    end, less every gap wider than ``max_gap`` — one pass over the
    per-column arrays, no stacking and no sort.  A negative gap (spans
    out of order or overlapping) falls back to :func:`coalesce_ranges`.
    """
    if len(rows) == 0:
        return 0
    subset = rows if len(rows) < pmap.nrows else None  # zones ruled rows out
    spans = [pmap.slices_for(c, subset) for c in cols]
    starts = [s for s, _ in spans]
    ends = [e for _, e in spans]
    gaps = [s - e for e, s in zip(ends, starts[1:])]  # within a row
    gaps.append(starts[0][1:] - ends[-1][:-1])  # one row to the next
    lengths = [e - s for s, e in zip(starts, ends)]
    if starts[0][0] < 0 or any(bool((a < 0).any()) for a in gaps + lengths):
        win_starts, win_ends = coalesce_ranges(
            np.column_stack(starts).ravel(), np.column_stack(ends).ravel(), max_gap
        )
        return int((win_ends - win_starts).sum())
    total = int(ends[-1][-1] - starts[0][0])
    for gap in gaps:
        total -= int(gap[gap > max_gap].sum())
    return total


def _gather_column(
    entry: TableEntry,
    pmap: PositionalMap,
    col: int,
    rows: np.ndarray,
    config: EngineConfig,
    stats: TokenizerStats,
) -> np.ndarray:
    """Read and extract one column's fields for the given rows only."""
    starts, ends = pmap.slices_for(col, rows)
    windows = entry.file.read_windows(
        starts,
        ends,
        max_gap=SELECTIVE_READ_MAX_GAP,
        workers=config.resolved_parallel_workers(),
    )
    stats.chars_scanned += windows.total_bytes
    stats.fields_tokenized += len(rows)
    raw = gather_fields(
        windows.buffer, windows.translate(starts), ends - starts
    )
    # Spans cover the *encoded* field text; non-identity dialects (quoted
    # CSV, TSV escapes, fixed-width padding) decode to the logical value.
    return entry.file.adapter.decode_many(raw)


def _selective_pass(
    entry: TableEntry,
    schema: TableSchema,
    needed: list[str],
    predicates: dict[int, RawPredicate],
    candidates: np.ndarray,
    zone_skips: int,
    pmap: PositionalMap,
    config: EngineConfig,
    parse_stats: ParseStats,
) -> PassResult:
    """Positional-map-driven pass: touch only the bytes the query needs.

    ``candidates`` are the rows the zone maps could not rule out
    (:func:`_zone_candidates`, ``zone_skips`` zones skipped): bytes of
    any other row are never requested at all.

    Pushdown predicates keep their early-abandonment power in range form:
    each predicate column is gathered only for the rows still in play, so
    a failing early predicate spares all later columns' bytes for that row
    — the byte-range analogue of abandoning a row mid-tokenization.  Each
    predicate is one bulk call over the gathered column (``pred.mask``:
    one parse, one range mask; see :class:`WideningPredicate`), and
    fields stay NumPy arrays from the gather to the parser — ``S`` bytes
    on ASCII windows, cast straight to numbers.
    """
    nrows = int(pmap.nrows)
    stats = TokenizerStats()
    stats.rows_scanned = nrows
    stats.rows_abandoned = nrows - len(candidates)
    gathered: dict[int, np.ndarray] = {}
    gathered_rows: dict[int, np.ndarray] = {}
    for col in sorted(predicates):
        values = _gather_column(entry, pmap, col, candidates, config, stats)
        gathered[col] = values
        gathered_rows[col] = candidates
        if config.zone_maps and len(values) == nrows:
            # The first predicate column is gathered for every row (no
            # zones narrowed it yet): learn its zones so the next warm
            # query can skip — the partial-loads analogue of learning
            # during cold scans.
            _learn_zones_from_text(entry, schema, col, values, config)
        keep = predicates[col].mask(values)
        stats.rows_abandoned += int(len(keep) - keep.sum())
        candidates = candidates[keep]

    needed_idx = sorted({schema.index_of(n) for n in needed})
    remaining = [c for c in needed_idx if c not in predicates]
    if remaining:
        spans = {c: pmap.slices_for(c, candidates) for c in remaining}
        windows = entry.file.read_windows(
            np.concatenate([s for s, _ in spans.values()]),
            np.concatenate([e for _, e in spans.values()]),
            max_gap=SELECTIVE_READ_MAX_GAP,
            workers=config.resolved_parallel_workers(),
        )
        stats.chars_scanned += windows.total_bytes
        for col in remaining:
            starts, ends = spans[col]
            gathered[col] = entry.file.adapter.decode_many(
                gather_fields(
                    windows.buffer, windows.translate(starts), ends - starts
                )
            )
            gathered_rows[col] = candidates
            stats.fields_tokenized += len(candidates)

    columns: dict[str, np.ndarray] = {}
    for name in needed:
        idx = schema.index_of(name)
        values = gathered[idx]
        rows = gathered_rows[idx]
        if len(rows) != len(candidates):
            # Gathered before later predicates narrowed the row set: keep
            # only the survivors (rows arrays are sorted by construction).
            values = values[np.searchsorted(rows, candidates)]
        columns[schema.columns[idx].name] = parse_column_with_widening(
            entry, idx, values, parse_stats
        )
    stats.rows_emitted = len(candidates)
    return PassResult(
        nrows=nrows,
        columns=columns,
        row_ids=candidates,
        tokenizer=stats,
        parse=parse_stats,
        zone_map_skips=zone_skips,
    )


# ---------------------------------------------------------------------------
# zone-map learning (the skipping by-product of passes that parse full rows)
# ---------------------------------------------------------------------------


def _zone_index(entry: TableEntry, nrows: int, config: EngineConfig) -> ZoneMapIndex:
    """The entry's zone-map index, created lazily (write lock held)."""
    zmi = entry.zone_maps
    if zmi is None or zmi.nrows != nrows:
        zmi = ZoneMapIndex(nrows=nrows, zone_rows=config.zone_map_rows)
        entry.zone_maps = zmi
    return zmi


def _learn_zone_maps(
    entry: TableEntry,
    schema: TableSchema,
    result: PassResult,
    config: EngineConfig,
) -> None:
    """Zone-map numeric columns a pass parsed for every row.

    The vectorized tokenizer already touched every value to produce the
    typed arrays, so the per-zone min/max/null-count reductions ride
    along nearly for free.  Only full-row results qualify (a predicate
    pass's surviving rows say nothing about the rows it abandoned), and
    all ``run_pass`` callers hold the table write lock — zone maps are
    mutated exactly like the positional map.
    """
    if not config.zone_maps or result.nrows <= 0 or not result.is_full_rows:
        return
    for name, values in result.columns.items():
        idx = schema.index_of(name)
        if not schema.columns[idx].dtype.is_numeric:
            continue
        zmi = _zone_index(entry, result.nrows, config)
        if not zmi.has(idx):
            zmi.learn(idx, values)


def _learn_zones_from_text(
    entry: TableEntry,
    schema: TableSchema,
    col: int,
    texts: np.ndarray,
    config: EngineConfig,
) -> None:
    """Zone-map a predicate column gathered for every row (text form).

    Parses under the current schema type with throwaway stats — this is
    index maintenance, not query-answer work.  Any parse failure
    declines silently; the predicate path itself handles widening.
    """
    if entry.zone_maps is not None and entry.zone_maps.has(col):
        return
    dtype = schema.columns[col].dtype
    if not dtype.is_numeric:
        return
    try:
        values = parse_fields(texts, dtype, ParseStats())
    except FlatFileError:
        return
    _zone_index(entry, len(texts), config).learn(col, values)


def full_load_pass(entry: TableEntry, config: EngineConfig) -> PassResult:
    """Load every column of every row (the up-front loading baseline)."""
    schema = entry.ensure_schema()
    return run_pass(
        entry,
        needed=schema.names,
        condition=None,
        config=config,
        parse_all_rows=True,
    )


def column_load_pass(
    entry: TableEntry, columns: list[str], config: EngineConfig
) -> PassResult:
    """Load the given columns completely, in one pass over the file."""
    return run_pass(
        entry,
        needed=columns,
        condition=None,
        config=config,
        parse_all_rows=True,
    )


def partial_load_pass(
    entry: TableEntry,
    columns: list[str],
    condition: Condition | None,
    config: EngineConfig,
) -> PassResult:
    """Load only rows qualifying the pushed-down range condition."""
    return run_pass(
        entry,
        needed=columns,
        condition=condition,
        config=config,
        parse_all_rows=False,
    )


def external_pass(
    entry: TableEntry, columns: list[str], config: EngineConfig
) -> PassResult:
    """The CSV-engine pass: tokenize whole rows, parse needed, keep nothing."""
    return run_pass(
        entry,
        needed=columns,
        condition=None,
        config=config,
        parse_all_rows=True,
        tokenize_everything=True,
    )
