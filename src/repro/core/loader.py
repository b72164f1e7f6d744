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
  field the pass needs — after the first pass over a file, every field
  of every column: each run of adjacent wanted columns, padded by its
  separators, is one window a row, the windows are read in one
  coalesced block read (a second one, for the kept rows only, reads
  output columns far from every pushdown predicate), every field is
  cut from the buffer, and each cut span is checked to sit between
  separators (a damaged map re-frames the file instead of answering
  from it) — a next-column or repeat query touches strictly less of
  the file than its first run;
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
from repro.flatfile.dialects import FormatAdapter
from repro.flatfile.files import FileWindows
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

_NEWLINE = 0x0A
_CARRIAGE = 0x0D


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
        result = _selective_pass(
            entry,
            schema,
            needed,
            condition if pushdown else None,
            want_cols,
            pmap,
            config,
        )
        if result is not None:
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


def _column_runs(cols: list[int]) -> list[list[int]]:
    """``cols`` split into runs of adjacent column numbers:
    ``[1, 2, 3, 6]`` gives ``[[1, 2, 3], [6]]``."""
    runs: list[list[int]] = []
    for c in cols:
        if runs and runs[-1][-1] == c - 1:
            runs[-1].append(c)
        else:
            runs.append([c])
    return runs


def _field_spans(
    pmap: PositionalMap, runs: list[list[int]], rows: np.ndarray, size: int
) -> dict[int, tuple[np.ndarray, np.ndarray]] | None:
    """``(starts, ends)`` of each column of ``runs`` in ``rows``, or
    ``None`` when the map is damaged.

    Row-major, a sound map's spans lie in file order: left to right
    within a row, then the next row, each at least one separator past
    the end of the one before (none between fixed-width fields), and all
    inside the file.  Within a run of adjacent columns that holds by
    construction — a field's end and the next one's start are one
    boundary array — so only each field's own extent, the step from one
    run to the next and the step from one row to the next are checked.
    A map that breaks this order — restored offsets damaged on disk — is
    never read from.
    """
    subset = rows if len(rows) < pmap.nrows else None  # zones ruled rows out
    spans = {c: pmap.slices_for(c, subset) for run in runs for c in run}
    if not len(rows):
        return spans
    sep = pmap.sep or 0
    first, last = spans[runs[0][0]][0], spans[runs[-1][-1]][1]
    steps = [(spans[a[-1]][1], spans[b[0]][0]) for a, b in zip(runs, runs[1:])]
    steps.append((last[:-1], first[1:]))
    if (
        first[0] < 0
        or last[-1] > size
        or any(bool((s > e).any()) for s, e in spans.values())
        or any(bool((end + sep > start).any()) for end, start in steps)
    ):
        return None
    return spans


def _run_windows(
    spans: dict[int, tuple[np.ndarray, np.ndarray]],
    runs: list[list[int]],
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One window per row and run, from the byte before its first field
    to the byte after its last, clipped to the file, row-major: both
    bounds run in file order."""
    lo = [np.maximum(spans[run[0]][0] - 1, 0) for run in runs]
    hi = [np.minimum(spans[run[-1]][1] + 1, size) for run in runs]
    if len(runs) == 1:
        return lo[0], hi[0]
    return np.column_stack(lo).ravel(), np.column_stack(hi).ravel()


def _coalesced_bytes(lo: np.ndarray, hi: np.ndarray, max_gap: int) -> int:
    """Bytes :func:`~repro.flatfile.files.coalesce_ranges` covers over
    windows whose starts and ends both run in file order, without
    building the windows: the whole extent less every gap wider than
    ``max_gap``."""
    if not len(lo):
        return 0
    gaps = lo[1:] - hi[:-1]
    return int(hi[-1] - lo[0]) - int(gaps[gaps > max_gap].sum())


def _locate_fields(
    windows: FileWindows,
    spans: dict[int, tuple[np.ndarray, np.ndarray]],
    runs: list[list[int]],
    size: int,
    adapter: FormatAdapter,
    ncols: int,
) -> dict[int, tuple[np.ndarray, np.ndarray]] | None:
    """Buffer offsets and lengths of the fields of ``runs``, or ``None``
    when some span is not a field.

    A span is a field when it sits between separators: the delimiter
    before and after it, a newline (or the file start) before the first
    column, and a newline, CR (or the file end) after the last.  Within
    a run the separator after one field is the one before the next, so
    it is checked once.  Each run was read with the byte on either side
    of it, so those bytes are in the buffer.  Fixed-width files have no
    delimiter, so only the row edges are checked there.  Restored or
    learned offsets are never trusted further than this: a damaged map
    costs a re-frame, never an answer.
    """
    buf = np.frombuffer(windows.buffer, dtype=np.uint8)
    delim = ord(adapter.delimiter) if adapter.delimiter is not None else None
    located: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for run in runs:
        s, _ = spans[run[0]]
        # The run's fields lie in one window, so in one block: one
        # shift moves all of them into the buffer.
        shift = windows.translate(s) - s
        before = buf[np.maximum(s + shift - 1, 0)]
        if run[0] == 0:
            ok = (s == 0) | (before == _NEWLINE)
        else:
            ok = (s > 0) & (before == delim if delim is not None else True)
        for c in run:
            s, e = spans[c]
            lo, lengths = s + shift, e - s
            after = buf[np.minimum(lo + lengths, len(buf) - 1)]
            if c == ncols - 1:
                line_end = (after == _NEWLINE) | (after == _CARRIAGE)
                ok &= (e == size) | (line_end & (e < size))
            else:
                ok &= (e < size) & (after == delim if delim is not None else True)
            located[c] = (lo, lengths)
        if not bool(ok.all()):
            return None
    return located


def _selective_pass(
    entry: TableEntry,
    schema: TableSchema,
    needed: list[str],
    condition: Condition | None,
    want_cols: list[int],
    pmap: PositionalMap,
    config: EngineConfig,
) -> PassResult | None:
    """Positional-map-driven pass: touch only the bytes the query needs.

    ``None`` declines, and the caller frames the file instead: when the
    windows over the zone survivors (:func:`_zone_candidates`) would not
    save at least 1/16th of the file — one sequential read beats many
    window reads of the same bytes — or when the map is damaged (it is
    then cleared, and the framing pass learns it afresh).  Bytes of any
    row the zones ruled out are never requested at all.

    Each run of adjacent wanted columns is one window per row, padded by
    the separator on either side that :func:`_locate_fields` checks, in
    row-major order, which is file order; far-apart columns read nothing
    between them.  Pushdown predicates keep their early-abandonment
    power: the runs holding a predicate column (with the output columns
    adjacent to it) are read in one :meth:`~repro.flatfile.files.
    FlatFile.read_windows` call for every candidate, predicate columns
    are cut from that buffer, each as one bulk call (``pred.mask``: one
    parse, one range mask; see :class:`WideningPredicate`), and the
    other columns only for the rows every predicate kept.  The other
    runs are read in a second call for those rows only.  Without a
    predicate — a next-column load — every run is read in one call.
    Fields stay NumPy arrays from the cut to the parser — ``S`` bytes on
    ASCII input, cast straight to numbers.
    """
    nrows = int(pmap.nrows)
    intervals = (
        {schema.index_of(c): iv for c, iv in condition.items} if condition else {}
    )
    candidates, zone_skips = _zone_candidates(entry, intervals, nrows, config)
    size = entry.file.size_bytes()
    runs = _column_runs(want_cols)
    spans = _field_spans(pmap, runs, candidates, size)
    if spans is None:
        pmap.clear()
        return None
    # Two fields at most SELECTIVE_READ_MAX_GAP bytes apart share a read
    # window; their padded windows are then two bytes closer.
    max_gap = SELECTIVE_READ_MAX_GAP - 2
    covered = _coalesced_bytes(*_run_windows(spans, runs, size), max_gap)
    if covered >= size - (size >> 4):
        return None

    # Counted apart from the caller's, which a declined pass must leave
    # untouched for the framing pass.
    parse_stats = ParseStats()
    predicates = _pushdown_predicates(entry, condition, config, parse_stats)
    stats = TokenizerStats()
    stats.rows_scanned = nrows
    stats.rows_abandoned = nrows - len(candidates)
    adapter = entry.file.adapter
    buffers: dict[int, bytes] = {}

    def read(
        read_runs: list[list[int]], at: np.ndarray | None
    ) -> dict[int, tuple[np.ndarray, np.ndarray]] | None:
        """Read ``read_runs`` in the candidates at positions ``at``."""
        sub = {
            c: spans[c] if at is None else (spans[c][0][at], spans[c][1][at])
            for run in read_runs
            for c in run
        }
        windows = entry.file.read_windows(
            *_run_windows(sub, read_runs, size),
            max_gap=max_gap,
            workers=config.resolved_parallel_workers(),
        )
        stats.chars_scanned += windows.window_bytes
        buffers.update((c, windows.buffer) for c in sub)
        return _locate_fields(windows, sub, read_runs, size, adapter, len(schema))

    first = [run for run in runs if any(c in predicates for c in run)] or runs
    located = read(first, None)
    if located is None:
        pmap.clear()
        return None

    def cut(col: int, at: np.ndarray | None) -> np.ndarray:
        """Column ``col``'s located fields, at positions ``at``."""
        lo, lengths = located[col]
        if at is not None:
            lo, lengths = lo[at], lengths[at]
        stats.fields_tokenized += len(lo)
        # Spans cover the *encoded* field text; non-identity dialects
        # (quoted CSV, TSV escapes, fixed-width padding) decode it.
        return adapter.decode_many(gather_fields(buffers[col], lo, lengths))

    gathered: dict[int, np.ndarray] = {}
    gathered_rows: dict[int, np.ndarray] = {}
    rows, alive = candidates, None
    for col in sorted(predicates):
        values = cut(col, alive)
        gathered[col], gathered_rows[col] = values, rows
        if config.zone_maps and len(values) == nrows:
            # The first predicate column is cut for every row (no zones
            # narrowed it yet): learn its zones so the next warm query
            # can skip — the partial-loads analogue of learning during
            # cold scans.
            _learn_zones_from_text(entry, schema, col, values, config)
        keep = predicates[col].mask(values)
        stats.rows_abandoned += int(len(keep) - keep.sum())
        rows = rows[keep]
        alive = np.flatnonzero(keep) if alive is None else alive[keep]
    later = [run for run in runs if run not in first]
    if later:
        more = read(later, alive)
        if more is None:
            pmap.clear()
            return None
        located.update(more)
    needed_idx = sorted({schema.index_of(n) for n in needed})
    for col in needed_idx:
        if col not in predicates:
            at = alive if any(col in run for run in first) else None
            gathered[col], gathered_rows[col] = cut(col, at), rows

    columns: dict[str, np.ndarray] = {}
    for name in needed:
        idx = schema.index_of(name)
        values = gathered[idx]
        if len(gathered_rows[idx]) != len(rows):
            # Cut before later predicates narrowed the row set: keep
            # only the survivors (rows arrays are sorted by construction).
            values = values[np.searchsorted(gathered_rows[idx], rows)]
        columns[schema.columns[idx].name] = parse_column_with_widening(
            entry, idx, values, parse_stats
        )
    stats.rows_emitted = len(rows)
    return PassResult(
        nrows=nrows,
        columns=columns,
        row_ids=rows,
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
