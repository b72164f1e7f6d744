"""Partitioned parallel first-pass scans over flat files.

The paper's loading operators amortize parsing cost across queries, but a
*first* pass over a file is still a full tokenize-and-parse, and a serial
implementation makes cold-start latency scale linearly with file size.
This module splits that pass into **row-range partitions** and frames
them task-parallel on threads of the one process, as Mühlbauer et al.
load partitions in one address space ("Instant Loading for Main Memory
Databases", PVLDB 2013):

1. :func:`plan_partitions` splits the file into N newline-aligned byte
   ranges (cached in memory on the catalog entry and re-planned whenever
   the file's size changes; never persisted, since a re-plan costs one
   small probe per boundary);
2. :func:`parallel_pass` reads each range through the file's checked
   read on its own thread and runs the ordinary
   :func:`~repro.flatfile.tokenizer.tokenize_bytes` over it, with a
   partition-local positional map and partition-local pushdown
   predicates.  The bulk kernel spends its time in NumPy calls that
   release the GIL, which is why only dialects it frames are split;
3. the query's thread merges the partitions deterministically: row ids
   are re-based in partition order, the maps are shifted and
   concatenated (:meth:`~repro.flatfile.positions.PositionalMap.
   absorb_partitions`), each predicate column takes the widest type any
   partition widened it to, and field arrays are concatenated in file
   order.  The result is what one ``tokenize_bytes`` over the whole file
   returns, and the caller parses it exactly as a serial pass does.

The table's schema and positional map change only during the merge,
after every partition has been framed, so a partition that fails (a
ragged row, an unreadable range) leaves them as they were.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.config import EngineConfig
from repro.core.loader import WideningPredicate, _widen_column
from repro.errors import FlatFileError
from repro.flatfile.dialects import as_text
from repro.flatfile.parser import ParseStats
from repro.flatfile.positions import PositionalMap
from repro.flatfile.schema import DataType, TableSchema, widest
from repro.flatfile.tokenizer import TokenizeResult, TokenizerStats, tokenize_bytes
from repro.ranges import ValueInterval
from repro.storage.catalog import TableEntry

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

    Serial wins when ``parallel_workers`` resolves to one, when the
    dialect is not framed by the bulk kernel, or when the file cannot
    yield at least two partitions of ``partition_min_bytes``.
    The plan is computed once and cached alongside the positional map;
    the boundary-alignment probe reads are charged to the file's I/O
    counters like any other metadata read.
    """
    workers = config.resolved_parallel_workers()
    if workers <= 1:
        return None
    if not entry.file.adapter.supports_vectorized:
        # Quoted CSV records may span raw newline bytes, so no byte
        # boundary is provably row-aligned; JSON-lines holds the GIL in
        # its per-record loop, so threads would only take turns.
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
# the threaded pass
# ---------------------------------------------------------------------------


@dataclass
class _Framed:
    """One partition's framing, before the merge: partition-relative row
    ids and map offsets, and the types its predicates widened to."""

    result: TokenizeResult
    learned: PositionalMap
    parse: ParseStats
    dtypes: dict[int, DataType]
    nbytes: int
    retries: int


def _frame_partition(
    entry: TableEntry,
    schema: TableSchema,
    part: Partition,
    needed: list[int],
    predicates: list[tuple[int, ValueInterval]],
    learn: bool,
) -> _Framed:
    """Read and tokenize one partition (runs on a pool thread).

    Touches no engine state: the predicates compare and widen a
    partition-local copy of their column types, count into a local
    :class:`ParseStats`, and the map is a fresh local one.  The read pays
    its simulated disk time here, so partitions overlap it, and leaves
    the counting to the query's thread.
    """
    file = entry.file
    retries_before = file.thread_io_retries()
    data = file.read_range_bytes(part.byte_start, part.byte_end, account=False)
    local_map = PositionalMap()
    parse_stats = ParseStats()
    dtypes = {idx: schema.columns[idx].dtype for idx, _ in predicates}
    result = tokenize_bytes(
        data,
        file.adapter,
        ncols=len(schema),
        needed=needed,
        predicates={
            idx: WideningPredicate(
                schema.columns[idx].name,
                interval,
                get_dtype=lambda _idx=idx: dtypes[_idx],
                widen=lambda wider, _idx=idx: dtypes.__setitem__(_idx, wider),
                parse_stats=parse_stats,
            )
            for idx, interval in predicates
        },
        positional_map=local_map,
        learn=learn,
        skip_rows=part.skip_rows,
        source=file.path,
        offset=part.byte_start,
    )
    return _Framed(
        result,
        local_map,
        parse_stats,
        dtypes,
        len(data),
        file.thread_io_retries() - retries_before,
    )


def _concat_fields(parts: list) -> "list[str] | np.ndarray":
    """One column's fields from every partition, in file order.

    Kernel partitions give arrays: ``S`` bytes when ASCII, ``U`` or
    object otherwise, so a mix becomes ``str`` first and no bytes leak
    into a text batch.  A partition the kernel declined gives a list of
    ``str``, and then the column is one list.
    """
    if all(isinstance(p, np.ndarray) for p in parts):
        if len({p.dtype.kind for p in parts}) > 1:
            parts = [as_text(p) for p in parts]
        return np.concatenate(parts)
    merged: list[str] = []
    for p in parts:
        merged.extend(as_text(p))
    return merged


def parallel_pass(
    entry: TableEntry,
    schema: TableSchema,
    pindex: PartitionIndex,
    needed: list[int],
    pred_items: list[tuple[str, ValueInterval]],
    parse_stats: ParseStats,
    config: EngineConfig,
) -> TokenizeResult:
    """Tokenize the ``needed`` columns of every partition on a thread
    each and merge them into what one serial ``tokenize_bytes`` returns.

    Pushdown predicates' conversions are added to ``parse_stats``.  The
    partitions' reads are accounted on the calling thread, as one full
    scan of ``len(pindex)`` read calls, so a query's per-thread I/O
    totals include them.
    """
    predicates = [(schema.index_of(col), iv) for col, iv in pred_items]
    learn = config.use_positional_map
    parts = pindex.partitions
    with ThreadPoolExecutor(max_workers=len(parts)) as pool:
        framed = list(
            pool.map(
                lambda p: _frame_partition(entry, schema, p, needed, predicates, learn),
                parts,
            )
        )

    # Each predicate column takes the widest type any partition reached
    # (the ladder is confluent: every partition walks the same steps,
    # just possibly fewer of them).
    for idx, _ in predicates:
        _widen_column(entry, idx, widest([f.dtypes[idx] for f in framed]))
    if learn:
        nchars = [f.learned.text_geometry[1] for f in framed]
        entry.positional_map.absorb_partitions(
            [f.learned for f in framed], np.cumsum([0] + nchars[:-1]).tolist()
        )
    entry.file.account_reads(
        sum(f.nbytes for f in framed),
        calls=len(framed),
        full_scan=True,
        throttled=True,
        retries=sum(f.retries for f in framed),
    )

    stats = TokenizerStats()
    row_ids = []
    base = 0
    for f in framed:
        stats.merge(f.result.stats)
        parse_stats.merge(f.parse)
        row_ids.append(f.result.row_ids + base)
        base += f.result.stats.rows_scanned
    return TokenizeResult(
        fields={
            col: _concat_fields([f.result.fields[col] for f in framed])
            for col in needed
        },
        row_ids=np.concatenate(row_ids),
        stats=stats,
    )
