"""Partitioned parallel first-pass scans over flat files.

The paper's loading operators amortize parsing cost across queries, but a
*first* pass over a file is still a full tokenize-and-parse, and a serial
implementation makes cold-start latency scale linearly with file size.
This module decomposes that pass into **row-range partitions** — bounded,
independently servable units in the spirit of result-bounded access
interfaces — and fans them out over a process pool:

1. :func:`plan_partitions` splits the file into N newline-aligned byte
   ranges (cached in memory on the catalog entry and re-planned whenever
   the file's size changes; never persisted, since a re-plan costs one
   small probe per boundary);
2. :func:`scan_partition` — the picklable worker — tokenizes one
   partition with the ordinary :func:`~repro.flatfile.tokenizer.
   tokenize_bytes`, rebuilding pushdown predicates from declarative
   specs and learning a partition-local positional map;
3. :func:`parallel_pass` dispatches the workers and merges their outputs
   deterministically: row ids are re-based in partition order, positional
   maps are shifted and concatenated (:meth:`~repro.flatfile.positions.
   PositionalMap.absorb_partitions`), per-partition schema widenings are
   resolved to the widest outcome of the shared ladder, and column arrays
   are concatenated in file order — so the adaptive store, eviction
   accounting and selective-read machinery see exactly what one serial
   pass would have produced.

Workers never touch engine state: a worker receives a :class:`ScanTask`
(paths, byte ranges, column indices, predicate intervals — all plain
data) and returns a :class:`ScanResult` (arrays, raw fields, stats).
Everything stateful — schema widening, store updates, I/O accounting,
positional-map feeding — happens in the parent during the merge.

Degradation is graceful by construction: files smaller than two minimum-
size partitions, ``parallel_workers=1``, or a pool that cannot start all
fall back to the serial path with identical semantics.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.config import EngineConfig
from repro.core.loader import (
    SELECTIVE_READ_MAX_GAP,
    PassResult,
    WideningPredicate,
    _widen_column,
    parse_column_with_widening,
    parse_widening,
)
from repro.errors import FlatFileError
from repro.flatfile.dialects import FormatAdapter, as_text
from repro.flatfile.parser import ParseStats, parse_fields
from repro.flatfile.positions import PositionalMap
from repro.flatfile.schema import DataType, TableSchema, widest
from repro.flatfile.tokenizer import (
    TokenizerStats,
    gather_fields,
    tokenize_bytes,
    tokenize_dialect,
)
from repro.ranges import ValueInterval
from repro.storage.catalog import TableEntry
from repro.strings import StringColumn

#: Read granularity while aligning a partition boundary to a newline.
_ALIGN_CHUNK = 4096


# ---------------------------------------------------------------------------
# partition planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """One newline-aligned byte range of a flat file.

    ``skip_rows`` is non-zero only for the first partition, which carries
    the header line when the file has one.
    """

    index: int
    byte_start: int
    byte_end: int
    skip_rows: int = 0

    @property
    def nbytes(self) -> int:
        return self.byte_end - self.byte_start


@dataclass
class PartitionIndex:
    """The cached partitioning of one file (analogue of the positional map).

    Cached on the :class:`~repro.storage.catalog.TableEntry` and dropped
    together with all other derived state when the file is edited.
    ``requested`` remembers the partition count asked for, so a config
    change recomputes; ``file_size`` guards against reuse across edits
    that auto-invalidation has not yet observed, and makes a tail-append
    re-plan over the grown file.  Held in memory only, never persisted.
    """

    partitions: list[Partition]
    requested: int
    file_size: int
    probe_bytes: int = 0  # bytes actually read while aligning boundaries
    probe_calls: int = 0  # read() calls issued while aligning

    def __len__(self) -> int:
        return len(self.partitions)


def plan_partitions(
    path, size: int, nparts: int, skip_rows: int = 0
) -> PartitionIndex:
    """Split ``[0, size)`` into up to ``nparts`` newline-aligned ranges.

    Target boundaries at ``i * size / nparts`` are pushed forward to just
    past the next ``\\n`` byte, so every row lives entirely inside one
    partition.  ``\\n`` is a single byte in UTF-8 and never part of a
    multi-byte sequence, so the alignment is also safe to decode per
    partition.  A boundary whose next newline lies more than one stride
    away is dropped (a row that long makes the split pointless there),
    which bounds total probe I/O at one stride per boundary; degenerate
    plans simply yield fewer partitions, down to one.  The bytes the
    probes actually read are reported in the returned index so the
    caller can charge them to the file's I/O accounting.
    """
    if nparts < 1:
        raise FlatFileError(f"nparts must be >= 1, got {nparts}")
    boundaries = [0]
    stride = max(1, size // nparts)
    probe_bytes = 0
    probe_calls = 0
    with open(path, "rb") as f:
        for i in range(1, nparts):
            target = i * size // nparts
            if target <= boundaries[-1]:
                continue
            f.seek(target)
            aligned = None
            pos = target
            while aligned is None and pos - target < stride:
                chunk = f.read(min(_ALIGN_CHUNK, stride - (pos - target)))
                if not chunk:
                    aligned = size
                    break
                probe_bytes += len(chunk)
                probe_calls += 1
                nl = chunk.find(b"\n")
                if nl != -1:
                    aligned = pos + nl + 1
                pos += len(chunk)
            if aligned is not None and boundaries[-1] < aligned < size:
                boundaries.append(aligned)
    boundaries.append(size)
    partitions = [
        Partition(
            index=i,
            byte_start=start,
            byte_end=end,
            skip_rows=skip_rows if i == 0 else 0,
        )
        for i, (start, end) in enumerate(zip(boundaries, boundaries[1:]))
    ]
    return PartitionIndex(
        partitions=partitions,
        requested=nparts,
        file_size=size,
        probe_bytes=probe_bytes,
        probe_calls=probe_calls,
    )


def partitions_for(entry: TableEntry, config: EngineConfig) -> PartitionIndex | None:
    """The entry's cached partitioning, or ``None`` when serial is better.

    Serial wins when ``parallel_workers`` resolves to one, or when the
    file cannot yield at least two partitions of ``partition_min_bytes``.
    The plan is computed once and cached alongside the positional map;
    the boundary-alignment probe reads are charged to the file's I/O
    counters like any other metadata read.
    """
    workers = config.resolved_parallel_workers()
    if workers <= 1:
        return None
    if not entry.file.adapter.supports_partitioning:
        # Records may span raw newline bytes (quoted CSV): no byte
        # boundary is provably row-aligned, so the scan stays serial.
        return None
    size = entry.file.size_bytes()
    nparts = min(workers, size // config.partition_min_bytes)
    if nparts < 2:
        return None
    cached = entry.partitions
    if (
        cached is not None
        and cached.requested == nparts
        and cached.file_size == size
    ):
        # Degenerate plans are cached too: a file that could not be split
        # (one giant row) must not re-pay the probe on every query.
        return cached if len(cached) >= 2 else None
    skip = 1 if entry.has_header else 0
    pindex = plan_partitions(entry.file.path, size, nparts, skip_rows=skip)
    if pindex.probe_calls:
        entry.file.account_reads(pindex.probe_bytes, calls=pindex.probe_calls)
    entry.partitions = pindex
    return pindex if len(pindex) >= 2 else None


# ---------------------------------------------------------------------------
# the worker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredicateSpec:
    """A pushdown predicate as plain data, rebuildable inside a worker."""

    col: int
    name: str
    dtype: str  # DataType value at dispatch time
    interval: ValueInterval


@dataclass(frozen=True)
class ScanTask:
    """Everything one worker needs to scan one partition (all picklable).

    Workers receive *byte ranges*, never file content: each worker
    streams its own range straight into the tokenizer, so the only data
    crossing the process boundary on the way back is the (much smaller)
    typed arrays.  ``bandwidth`` carries the file's simulated-disk
    throttle into the worker — each partition pays its own read time
    in-process, concurrently, the way N workers on N real disk streams
    would.
    """

    path: str
    adapter: FormatAdapter
    byte_start: int
    byte_end: int
    skip_rows: int
    ncols: int
    tokenize_cols: tuple[int, ...]
    parse_cols: tuple[tuple[int, str], ...]  # (column index, dtype value)
    predicates: tuple[PredicateSpec, ...]
    bandwidth: float | None = None


@dataclass
class ScanResult:
    """One partition's contribution, before the deterministic merge.

    Offsets inside :attr:`learned` and :attr:`row_ids` are relative to
    the partition (character offsets / data-row indices); the merge step
    re-bases them.  Exactly one of :attr:`parsed` / :attr:`raw_fields`
    is populated per needed column: partitions parse locally when no
    predicates are pushed down (reporting the locally-widened dtype),
    and ship raw qualifying fields otherwise so the parent can run the
    shared widening ladder over the merged rows.
    """

    nrows: int
    nbytes: int
    nchars: int
    row_ids: np.ndarray
    #: Column index -> (dtype value, an array or a StringColumn).
    parsed: dict[int, tuple[str, Any]] = field(default_factory=dict)
    raw_fields: dict[int, list[str]] = field(default_factory=dict)
    learned: PositionalMap = field(default_factory=PositionalMap)
    tokenizer: TokenizerStats = field(default_factory=TokenizerStats)
    parse: ParseStats = field(default_factory=ParseStats)
    widened_predicates: dict[int, str] = field(default_factory=dict)


def _predicate_from_spec(
    spec: PredicateSpec, parse_stats: ParseStats, widened: dict[int, str]
):
    """Rebuild a counted, widening pushdown predicate from its spec.

    Same construction as the serial loader (one source of truth:
    :class:`~repro.core.loader.WideningPredicate`), except the
    column type lives in partition-local state instead of the real
    schema, and every widening is recorded in ``widened`` so the parent
    can replay it onto the schema during the merge.
    """
    state = {"dtype": DataType(spec.dtype)}

    def widen(wider: DataType) -> None:
        state["dtype"] = wider
        widened[spec.col] = wider.value

    return WideningPredicate(
        spec.name,
        spec.interval,
        get_dtype=lambda: state["dtype"],
        widen=widen,
        parse_stats=parse_stats,
    )


def scan_partition(task: ScanTask) -> ScanResult:
    """Tokenize (and, without predicates, parse) one partition.

    Runs in a worker process.  Reads only the partition's byte range,
    decodes it (safe: boundaries are newline-aligned), and drives the
    ordinary selective tokenizer over it with a fresh partition-local
    positional map, so every serial invariant — blank-line skipping, CRLF
    trimming, early abort, ragged-row errors — holds per partition.
    """
    with open(task.path, "rb") as f:
        f.seek(task.byte_start)
        data = f.read(task.byte_end - task.byte_start)
    if task.bandwidth:
        # Each worker pays its own partition's simulated disk time here,
        # in-process — N partitions on N workers overlap their reads.
        time.sleep(len(data) / task.bandwidth)
    local_map = PositionalMap()
    parse_stats = ParseStats()
    widened: dict[int, str] = {}
    predicates = {
        spec.col: _predicate_from_spec(spec, parse_stats, widened)
        for spec in task.predicates
    }
    result = tokenize_bytes(
        data,
        task.adapter,
        ncols=task.ncols,
        needed=list(task.tokenize_cols),
        predicates=predicates,
        positional_map=local_map,
        learn=True,
        skip_rows=task.skip_rows,
        source=task.path,
        offset=task.byte_start,
    )
    # tokenize_bytes recorded the partition's geometry on the local map.
    nchars = local_map.text_geometry[1]
    out = ScanResult(
        nrows=result.stats.rows_scanned,
        nbytes=len(data),
        nchars=nchars,
        row_ids=result.row_ids,
        learned=local_map,
        tokenizer=result.stats,
        parse=parse_stats,
        widened_predicates=widened,
    )
    if predicates:
        # Predicate mode: ship the qualifying rows' raw fields; the
        # parent parses the merged rows through the shared ladder.
        out.raw_fields = {col: result.fields[col] for col, _ in task.parse_cols}
        return out
    for col, dtype_value in task.parse_cols:
        state = [DataType(dtype_value)]
        values = parse_widening(
            result.fields[col],
            lambda: state[0],
            lambda wider: state.__setitem__(0, wider),
            parse_stats,
        )
        out.parsed[col] = (state[0].value, values)
    return out


# ---------------------------------------------------------------------------
# dispatch + deterministic merge
# ---------------------------------------------------------------------------


def _pool_context(method: str | None):
    """The multiprocessing context for the worker pool.

    ``method=None`` prefers ``fork`` where available: it is cheap, and —
    unlike ``spawn``/``forkserver``, which re-execute the host's
    ``__main__`` in every worker — it never re-runs an unguarded user
    script or breaks stdin-driven/interactive sessions, the bigger
    hazard for a library used from notebooks and one-off scripts.  The
    trade-off: forking a *multi-threaded* host can copy held locks into
    the children (and warns on Python 3.12+).  Threaded services should
    set :attr:`~repro.config.EngineConfig.parallel_start_method` to
    ``"forkserver"`` or ``"spawn"`` explicitly.
    """
    methods = multiprocessing.get_all_start_methods()
    if method is not None:
        if method not in methods:
            raise FlatFileError(
                f"start method {method!r} unavailable on this platform "
                f"(have: {methods})"
            )
        return multiprocessing.get_context(method)
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


#: Shared worker pools, keyed by (start method, worker count).  Workers
#: are stateless (pure functions over picklable tasks), so one pool
#: serves every engine and every file in the process; reuse turns pool
#: start-up from a per-scan cost into a once-per-process cost.
_POOLS: dict[tuple[str | None, int], ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _get_pool(method: str | None, workers: int) -> ProcessPoolExecutor:
    key = (method, workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=_pool_context(method)
            )
            _POOLS[key] = pool
        return pool


def warm_pool(workers: int, method: str | None = None) -> None:
    """Start (or reuse) the shared pool and wait until it answers.

    The first parallel scan in a process otherwise pays worker start-up
    (and, for spawn-family methods, per-worker interpreter boot) inside
    its own latency.  Long-running services can call this once at boot;
    benchmarks call it so they measure scan throughput, not start-up.
    One no-op task per worker forces the whole pool up.
    """
    pool = _get_pool(method, workers)
    list(pool.map(_warmup_nap, [0.05] * workers))


def _warmup_nap(seconds: float) -> None:
    # Long enough that each idle worker takes one task rather than a
    # single fast worker draining the queue before its siblings start.
    time.sleep(seconds)


def _discard_pool(method: str | None, workers: int) -> None:
    """Drop (and stop) a broken pool so the next scan can rebuild it."""
    with _POOLS_LOCK:
        pool = _POOLS.pop((method, workers), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Stop all shared worker pools (called automatically at exit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


def parallel_pass(
    entry: TableEntry,
    schema: TableSchema,
    needed: list[str],
    pred_items: list[tuple[str, ValueInterval]],
    config: EngineConfig,
    pindex: PartitionIndex,
    *,
    tokenize_cols: list[int],
):
    """Fan one first-pass scan out over the partitions and merge.

    Returns a :class:`~repro.core.loader.PassResult` indistinguishable
    from the serial pass in its *results* — same rows, row ids, widened
    schema and positional-map contents — or ``None`` when the process
    pool cannot start (the caller then falls back to the serial path).
    I/O accounting is honest rather than identical: the partitions'
    reads sum to one full scan like serial, plus the boundary probes
    and, on the rare mixed-dtype rebuild, the extra window reads those
    paths really perform.
    """
    needed_idx: list[int] = []
    for name in needed:
        idx = schema.index_of(name)
        if idx not in needed_idx:
            needed_idx.append(idx)
    specs = tuple(
        PredicateSpec(
            col=schema.index_of(col),
            name=schema.columns[schema.index_of(col)].name,
            dtype=schema.columns[schema.index_of(col)].dtype.value,
            interval=interval,
        )
        for col, interval in pred_items
    )
    parse_cols = tuple(
        (idx, schema.columns[idx].dtype.value) for idx in needed_idx
    )
    tasks = [
        ScanTask(
            path=str(entry.file.path),
            adapter=entry.file.adapter,
            byte_start=p.byte_start,
            byte_end=p.byte_end,
            skip_rows=p.skip_rows,
            ncols=len(schema),
            tokenize_cols=tuple(tokenize_cols),
            parse_cols=parse_cols,
            predicates=specs,
            bandwidth=entry.file.bandwidth_bytes_per_sec,
        )
        for p in pindex.partitions
    ]
    workers = min(config.resolved_parallel_workers(), len(tasks))
    method = config.parallel_start_method
    try:
        # Fault point ``pool.worker``: simulate the pool dying mid-pass.
        # Raised inside the try so the *real* recovery below runs — the
        # broken pool is discarded and the caller falls back to a serial
        # scan with this pass's partial work dropped atomically (the
        # entry is only mutated by _merge_results, after a full map).
        plan = entry.file.fault_plan
        if plan is not None:
            plan.check("pool.worker")
        results = list(_get_pool(method, workers).map(scan_partition, tasks))
    except (BrokenProcessPool, OSError, PermissionError):
        _discard_pool(method, workers)
        return None
    return _merge_results(entry, schema, needed, results, config)


def _merge_results(
    entry: TableEntry,
    schema: TableSchema,
    needed: list[str],
    results: list[ScanResult],
    config: EngineConfig,
):
    """Stitch partition outputs back into one serial-equivalent pass."""
    nrows = sum(r.nrows for r in results)
    row_bases = np.cumsum([0] + [r.nrows for r in results[:-1]])
    char_bases = np.cumsum([0] + [r.nchars for r in results[:-1]])
    row_ids = np.concatenate(
        [r.row_ids + base for r, base in zip(results, row_bases.tolist())]
    )
    tok_stats = TokenizerStats()
    parse_stats = ParseStats()
    for r in results:
        tok_stats.merge(r.tokenizer)
        parse_stats.merge(r.parse)

    # Replay per-partition predicate widenings onto the real schema,
    # widest outcome wins (the ladder is confluent: every partition walks
    # the same steps, just possibly fewer of them).
    pred_widened: dict[int, list[DataType]] = {}
    for r in results:
        for col, dtype_value in r.widened_predicates.items():
            pred_widened.setdefault(col, []).append(DataType(dtype_value))
    for col, dtypes in pred_widened.items():
        _widen_column(entry, col, widest(dtypes))

    # Merged once: the entry's map learns the partitions' spans, and the
    # mixed-dtype rebuild below reads its spans back from the same map.
    pmap = entry.positional_map if config.use_positional_map else PositionalMap()
    pmap.absorb_partitions([r.learned for r in results], char_bases.tolist())

    # The partitions tile the file: together they are one full scan.
    # Workers already slept their simulated disk time in-process.
    entry.file.account_reads(
        sum(r.nbytes for r in results),
        calls=len(results),
        full_scan=True,
        throttled=True,
    )

    predicate_mode = any(len(r.raw_fields) for r in results)
    columns: dict[str, np.ndarray] = {}
    full_text: str | None = None
    for name in needed:
        idx = schema.index_of(name)
        if predicate_mode:
            parts = [r.raw_fields[idx] for r in results]
            if parts and all(isinstance(p, np.ndarray) for p in parts):
                # Vectorized workers ship field arrays: concatenate and
                # parse the merged column in one bulk conversion.  ASCII
                # partitions ship ``S`` bytes; beside ``U`` or object
                # partitions they become ``str`` first, so no bytes leak
                # into a merged object batch.
                if len({p.dtype.kind for p in parts}) > 1:
                    parts = [as_text(p) for p in parts]
                raw: "list[str] | np.ndarray" = np.concatenate(parts)
            else:
                raw = []
                for p in parts:
                    raw.extend(as_text(p))
            columns[schema.columns[idx].name] = parse_column_with_widening(
                entry, idx, raw, parse_stats
            )
            continue
        part_dtypes = [DataType(r.parsed[idx][0]) for r in results]
        target = widest(part_dtypes)
        if target is DataType.STRING and any(
            d is not DataType.STRING for d in part_dtypes
        ):
            # A numeric partition cannot be upcast to the exact raw text
            # (formatting was lost in parsing); rebuild the column from
            # the file via the merged field slices.  Rare — it needs a
            # column that is numeric in some partitions and not others.
            if not pmap.knows_column(idx):
                # Span-less dialect (JSON-lines): no field slices exist;
                # re-tokenize just this column from the full text.
                if full_text is None:
                    full_text = entry.file.read_all()
                res = tokenize_dialect(
                    full_text,
                    entry.file.adapter,
                    ncols=len(schema),
                    needed=[idx],
                    learn=False,
                    skip_rows=1 if entry.has_header else 0,
                )
                tok_stats.merge(res.stats)
                columns[schema.columns[idx].name] = parse_fields(
                    res.fields[idx], DataType.STRING, parse_stats
                )
                _widen_column(entry, idx, target)
                continue
            starts, ends = pmap.slices_for(idx)
            if sum(r.nbytes for r in results) == sum(r.nchars for r in results):
                # Single-byte text: char offsets are byte offsets, so the
                # selective-read machinery fetches just this column.
                windows = entry.file.read_windows(
                    starts,
                    ends,
                    max_gap=SELECTIVE_READ_MAX_GAP,
                    workers=config.resolved_parallel_workers(),
                )
                raw = gather_fields(
                    windows.buffer, windows.translate(starts), ends - starts
                )
            else:
                # Multi-byte text: offsets only index the decoded string.
                if full_text is None:
                    full_text = entry.file.read_all()
                raw = [
                    full_text[s:e]
                    for s, e in zip(starts.tolist(), ends.tolist())
                ]
            # Spans hold *encoded* field text; undo dialect encoding.
            raw = entry.file.adapter.decode_many(raw)
            merged = parse_fields(raw, DataType.STRING, parse_stats)
        elif target is DataType.STRING:
            # Each partition encoded its own dictionary; merging them in
            # file order numbers every value by its first occurrence in
            # the file, exactly as one serial encode would.
            merged = StringColumn.concat(r.parsed[idx][1] for r in results)
        else:
            merged = np.concatenate(
                [
                    r.parsed[idx][1].astype(target.numpy_dtype)
                    if DataType(r.parsed[idx][0]) is not target
                    else r.parsed[idx][1]
                    for r in results
                ]
            )
        if schema.columns[idx].dtype is not target:
            _widen_column(entry, idx, target)
        columns[schema.columns[idx].name] = merged

    return PassResult(
        nrows=nrows,
        columns=columns,
        row_ids=row_ids,
        tokenizer=tok_stats,
        parse=parse_stats,
        partitions=len(results),
    )
