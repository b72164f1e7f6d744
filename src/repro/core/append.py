"""Append-extension: grow learned state instead of wiping it.

The fingerprint treats any file change as staleness, but the dominant
change on real serving data is a *pure tail-append* to a growing log:
every byte the engine learned from is still there, followed by new ones.
Learned structures are themselves derived data worth preserving — a
positional map over 100M rows does not become wrong because 1M rows
arrived after it — so this module extends them incrementally:

* the **positional map** absorbs field spans for the appended region
  only (tokenized standalone, shifted by the old text geometry) and
  grows its row count;
* fully loaded **store columns** parse and concatenate just the appended
  values, staying fully loaded (partial fragments drop: their coverage
  certificates no longer describe the grown row space); a string
  column's existing codes stay put and its dictionary grows at its end
  by the values it had not seen;
* **zone maps** merge the boundary zone and append new zones (zone
  statistics are associative).

The partition plan is not extended: its ``file_size`` no longer matches,
so the next parallel pass re-plans balanced partitions over the grown
file (:func:`repro.core.partitions.partitions_for`).

Crackers and cached query results are *not* extended — their answers
genuinely changed — and the engine invalidates them alongside.  Every
precondition failure falls back to full invalidation, which is always
correct; extension is strictly an optimization.

All of this runs under the table's write lock, from the same staleness
check that would otherwise wipe the entry.
"""

from __future__ import annotations

import numpy as np

from repro.core.loader import parse_column_with_widening
from repro.errors import FlatFileError
from repro.flatfile.files import FileFingerprint
from repro.flatfile.parser import ParseStats
from repro.flatfile.positions import PositionalMap
from repro.flatfile.tokenizer import tokenize_bytes
from repro.storage.catalog import TableEntry
from repro.storage.memory import MemoryManager


def extend_entry_for_append(
    entry: TableEntry,
    old: FileFingerprint,
    new: FileFingerprint,
    memory: MemoryManager,
) -> bool:
    """Extend ``entry``'s learned state over a verified tail-append.

    The caller holds the table's write lock and has already established
    (via :func:`repro.flatfile.files.detect_tail_append`) that the file
    grew from ``old`` to ``new`` with the prior region byte-identical.
    Returns True when every structure was extended consistently; False
    declines, and the caller must fall back to full invalidation.  The
    appended region is the only part of the file this function reads.
    """
    table = entry.table
    if table is None:
        return False
    adapter = entry.file.adapter
    if not adapter.supports_partitioning:
        # Records may span lines (quoted CSV): the appended bytes cannot
        # be framed as a standalone document.
        return False
    schema = entry.ensure_schema()
    pm = entry.positional_map
    if pm.nrows is not None and pm.nrows != table.nrows:
        return False
    if entry.zone_maps is not None and entry.zone_maps.nrows != table.nrows:
        entry.zone_maps = None
    try:
        # Tokenizing the appended bytes standalone is only sound when the
        # old content ended at a record boundary.
        if entry.file.read_range_bytes(old.size - 1, old.size) != b"\n":
            return False
        data = entry.file.read_range_bytes(old.size, new.size)
    except FlatFileError:
        return False

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
    try:
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
    except FlatFileError:
        return False
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
    try:
        for idx in sorted(parse_idx):
            raw = result.fields.get(idx)
            if raw is None or len(raw) != added:
                return False
            appended_idx[idx] = parse_column_with_widening(
                entry, idx, raw, parse_stats
            )
    except FlatFileError:
        return False

    pm.extend_tail(tail_map, added)

    appended_by_key = {
        schema.columns[idx].name.lower(): values
        for idx, values in appended_idx.items()
    }
    kept = table.grow(new_nrows, appended_by_key)
    for key, stayed in kept.items():
        pc = table.columns[key]
        mkey = (table.name, pc.name)
        if stayed and pc.values is not None:

            def dropper(pc=pc):
                pc.drop()

            # Concatenation moved any memmap backing onto the heap.
            memory.register(mkey, pc.logical_nbytes, dropper, mapped=False)
        else:
            memory.forget(mkey)

    if entry.zone_maps is not None:
        entry.zone_maps = entry.zone_maps.extended(new_nrows, appended_idx)

    if entry.split_catalog is not None:
        # Split per-column files cover the old rows only; rebuild lazily.
        entry.split_catalog.destroy()
        entry.split_catalog = None
    return True
