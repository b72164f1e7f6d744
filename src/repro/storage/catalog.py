"""The catalog: attached flat files and everything learned about them.

Attaching a file is the *only* preparation step the paper's vision allows
("all you need to do to use it, is point to your data").  Accordingly,
:meth:`Catalog.attach` does no I/O beyond an existence check.  Schema
detection, row counting, positional-map learning and loading all happen
lazily, as side effects of queries.
"""

from __future__ import annotations

import glob as _glob
import hashlib
import itertools
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import CatalogError, SchemaInferenceError

if TYPE_CHECKING:  # import would be circular at runtime (core -> storage)
    from repro.core.splitfile import SplitFileCatalog
    from repro.core.zonemaps import ZoneMapIndex
    from repro.cracking.cracker import CrackerColumn
from repro.faults import FaultPlan
from repro.flatfile.files import FileFingerprint, FlatFile
from repro.flatfile.positions import PositionalMap
from repro.flatfile.schema import (
    ColumnSchema,
    TableSchema,
    infer_schema,
    looks_like_header,
    merge_schemas,
)
from repro.locks import RWLock
from repro.storage.table import Table

#: Process-wide attachment epochs: every TableEntry gets a distinct uid,
#: so state keyed on it (e.g. result-cache keys) can never confuse two
#: attachments of the same table name.
_ENTRY_UIDS = itertools.count(1)


@dataclass
class TableEntry:
    """Catalog record of one attached flat file."""

    name: str
    file: FlatFile
    schema: TableSchema | None = None
    has_header: bool = False
    table: Table | None = None
    positional_map: PositionalMap = field(default_factory=PositionalMap)
    #: Per-zone min/max/null-count statistics learned as a side effect
    #: of full-row passes; lets the selective path skip whole zones a
    #: range predicate cannot match.
    zone_maps: "ZoneMapIndex | None" = None
    #: Cracked copies of hot numeric predicate columns (warm path).
    #: Built and reorganized under :attr:`cracker_lock`; dropped
    #: wholesale whenever the source file's fingerprint changes.
    crackers: dict[str, "CrackerColumn"] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Serializes cracker creation/reorganization.  Crackers own copies
    #: of their base columns, so cracking mutates no entry/store state —
    #: which is why warm serves may crack under the shared *read* lock.
    cracker_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: Split (cracked) per-column files for the splitfiles policy — owned
    #: by the entry (not an engine-wide name-keyed map) so a detached
    #: entry can never leak its catalog to a re-attached namesake.
    #: Only ever created/used under the table's write lock.
    split_catalog: "SplitFileCatalog | None" = None
    #: The fingerprint the learned state was read under (None: cold).
    #: Only :mod:`repro.core.lifecycle` assigns it, ``store_base``,
    #: ``generation``, ``epoch`` and ``detached``: together they say which
    #: lifecycle condition the entry is in.
    loaded_fingerprint: FileFingerprint | None = None
    #: ``(fingerprint, nrows)`` of the persistent-store entry this state
    #: was last restored from or saved as.  Verified tail-appends keep it
    #: (the state then extends that entry row for row, so the next save
    #: writes only the new rows); invalidation drops it.
    store_base: tuple[FileFingerprint, int] | None = field(
        default=None, repr=False, compare=False
    )
    #: Reader–writer lock serializing store mutation per table: queries
    #: answered from resident fragments share the read side; loads (and
    #: invalidation) take the write side.  Distinct tables never contend.
    rwlock: RWLock = field(default_factory=RWLock, repr=False, compare=False)
    #: Serializes lazy schema inference (callers may hold no table lock).
    schema_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: Bumped on every invalidation and tail-append extension; a "cold
    #: (table, columns) generation" in the shared-scan accounting is
    #: keyed by this counter.
    generation: int = 0
    #: Bumped when the state stops extending what a store save described
    #: (invalidation, a damaged positional map dropped), not by tail-append
    #: extensions: state under one epoch grows from one load row for row,
    #: so a save of an earlier snapshot still describes a prefix of it.
    epoch: int = 0
    #: Tombstone set (under the write lock) when the table is detached: a
    #: query that resolved this entry before the detach must fail instead
    #: of silently repopulating store/split state on an unlisted entry.
    detached: bool = False
    #: Attachment epoch (unique per attach, even of the same name/file):
    #: cached results are keyed on it, so a result computed under one
    #: attachment's parse options can never serve a re-attachment's.
    uid: int = field(default_factory=lambda: next(_ENTRY_UIDS))

    # -------------------------------------------------------------- schema

    def ensure_schema(self) -> TableSchema:
        """Infer the schema on first use (paper section 5.6).

        Thread-safe: concurrent first uses race to the ``schema_lock``
        and exactly one performs the sampling I/O.
        """
        schema = self.schema
        if schema is not None:
            return schema
        with self.schema_lock:
            if self.schema is None:
                self._infer_schema()
            return self.schema

    def _infer_schema(self) -> None:
        rows = self.file.sample_rows()
        if not rows:
            raise CatalogError(f"file {self.file.path} is empty")
        embedded = self.file.adapter.embedded_header
        if embedded is not None:
            # The dialect carries its own column names (JSON-lines
            # keys): no header *line* exists to skip.
            self.has_header = False
            self.schema = infer_schema(rows, header=embedded)
            return
        second = rows[1] if len(rows) > 1 else None
        self.has_header = looks_like_header(rows[0], second)
        header, body = (rows[0], rows[1:]) if self.has_header else (None, rows)
        if not body:
            raise CatalogError(f"file {self.file.path} has a header but no data")
        try:
            self.schema = infer_schema(body, header=header)
        except SchemaInferenceError as exc:
            # Plain delimited splits on every delimiter, quoted or not: a
            # spreadsheet-style quoted field shows up as a width mismatch.
            quoted = any('"' in value for row in rows for value in row)
            if self.file.format not in (None, "csv") or not quoted:
                raise
            raise SchemaInferenceError(
                f'{exc}; the file has quoted fields: attach it with format="auto" '
                f'(or format="quoted-csv")'
            ) from None

    def ensure_table(self, nrows: int) -> Table:
        """Create the adaptive-store table once the row count is known.

        The lifecycle brands it, once the load ends, with the fingerprint
        taken before the load's raw read
        (:meth:`repro.core.lifecycle.Lifecycle.load`).
        """
        if self.table is None:
            self.table = Table(self.name, self.ensure_schema(), nrows)
        elif self.table.nrows != nrows:
            raise CatalogError(
                f"table {self.name!r}: row count changed from {self.table.nrows} to {nrows}"
            )
        return self.table

    # -------------------------------------------------------- invalidation

    def is_stale(self, observed: FileFingerprint | None = None) -> bool:
        """Has the flat file been edited since data was loaded from it?
        ``observed`` is a fingerprint the caller already took this query."""
        if self.loaded_fingerprint is None:
            return False
        return (observed or self.file.fingerprint()) != self.loaded_fingerprint

    def cracker_key(self, column: str) -> tuple[str, str]:
        """Memory-manager key of one cracked column.

        The NUL byte keeps the namespace disjoint from the plain
        ``(table, column)`` keys of store fragments (table names cannot
        contain NUL)."""
        return (f"{self.name.lower()}\x00crackers", column.lower())

    def part_entries(self) -> list["TableEntry"]:
        """The entry itself: a single-file table is its one part."""
        return [self]


def has_glob_magic(text: str) -> bool:
    """Does ``text`` contain glob wildcards (``*``, ``?``, ``[``)?"""
    return any(ch in text for ch in "*?[")


@dataclass
class MultiFileEntry:
    """Catalog record of one table backed by many part files.

    Attaching a glob pattern or a directory creates one of these instead
    of a :class:`TableEntry`.  Each matching part file gets its own full
    ``TableEntry`` — per-file fingerprint, positional map, zone maps,
    persistence, append-extension — and queries serve every
    part independently before concatenating the views (a late union).
    The part set is re-discovered on every query, so "new data arrived"
    is just "a new part file appeared": no re-attach, no invalidation of
    the parts already learned.
    """

    name: str
    pattern: str
    delimiter: str = ","
    bandwidth_bytes_per_sec: float | None = None
    format: str | None = None
    fixed_widths: tuple[int, ...] | None = None
    #: Fault-injection plan inherited by every part's FlatFile.
    fault_plan: "FaultPlan | None" = None
    #: Resolved part-path string -> that part's own TableEntry.
    parts: dict[str, TableEntry] = field(default_factory=dict)
    #: The merged (widest-per-column) schema across all parts seen.
    schema: TableSchema | None = None
    #: Serializes part discovery and schema reconciliation.
    parts_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: Parent-level lock for detach tombstoning (parts have their own).
    rwlock: RWLock = field(default_factory=RWLock, repr=False, compare=False)
    detached: bool = False
    uid: int = field(default_factory=lambda: next(_ENTRY_UIDS))

    def discover(self) -> list[Path]:
        """Current part files, sorted by path (empty files are skipped:
        a zero-byte part is data that has not arrived yet)."""
        base = Path(self.pattern)
        if base.is_dir():
            candidates = sorted(base.iterdir())
        else:
            candidates = sorted(Path(p) for p in _glob.glob(self.pattern))
        out = []
        for p in candidates:
            try:
                if p.is_file() and p.stat().st_size > 0:
                    out.append(p)
            except OSError:
                continue  # vanished mid-listing: as if it never matched
        return out

    def _part_name(self, path: Path) -> str:
        # Unique and stable per resolved path: basenames may collide
        # across directories matched by one pattern, and store/memory
        # keys are derived from part names.
        digest = hashlib.blake2b(
            str(path.resolve()).encode(), digest_size=3
        ).hexdigest()
        return f"{self.name}::{path.name}~{digest}"

    def refresh(self) -> tuple[list[TableEntry], list[TableEntry]]:
        """Re-glob the pattern; returns ``(current parts, removed parts)``.

        New part files get entries (with schemas reconciled against the
        merged parent schema — raising on shape disagreement); entries
        whose file disappeared are returned for the engine to invalidate.
        """
        with self.parts_lock:
            found = {str(p): p for p in self.discover()}
            removed = [e for key, e in self.parts.items() if key not in found]
            for key in list(self.parts):
                if key not in found:
                    del self.parts[key]
            for key, path in sorted(found.items()):
                if key in self.parts:
                    continue
                entry = TableEntry(
                    name=self._part_name(path),
                    file=FlatFile(
                        path,
                        delimiter=self.delimiter,
                        bandwidth_bytes_per_sec=self.bandwidth_bytes_per_sec,
                        format=self.format,
                        fixed_widths=self.fixed_widths,
                        fault_plan=self.fault_plan,
                    ),
                )
                self._reconcile_schema(entry)
                self.parts[key] = entry
            if not self.parts:
                raise CatalogError(
                    f"table {self.name!r}: no data files match {self.pattern!r}"
                )
            current = [self.parts[key] for key in sorted(self.parts)]
            return current, removed

    def _reconcile_schema(self, entry: TableEntry) -> None:
        """Fold one new part's inferred schema into the merged schema."""
        part_schema = entry.ensure_schema()
        if self.schema is None:
            merged = part_schema
        else:
            try:
                merged = merge_schemas(self.schema, part_schema)
            except SchemaInferenceError as exc:
                raise CatalogError(
                    f"table {self.name!r}: part file {entry.file.path} "
                    f"does not fit the table: {exc}"
                ) from exc
        self.schema = merged
        # Each part gets its own *copy* of the merged schema: per-part
        # widening mutates schemas in place and must stay per-part (the
        # union path re-widens lagging parts when views are combined).
        entry.schema = TableSchema(
            [ColumnSchema(c.name, c.dtype) for c in merged.columns]
        )

    def ensure_schema(self) -> TableSchema:
        """The merged schema, discovering parts on first use."""
        if self.schema is None:
            self.refresh()
        return self.schema

    def part_entries(self) -> list[TableEntry]:
        """Snapshot of the currently known parts (no re-discovery)."""
        with self.parts_lock:
            return [self.parts[key] for key in sorted(self.parts)]


@dataclass
class Catalog:
    """All attached tables, by lower-cased name."""

    entries: "dict[str, TableEntry | MultiFileEntry]" = field(default_factory=dict)

    def attach(
        self,
        name: str,
        path: Path | str,
        delimiter: str = ",",
        bandwidth_bytes_per_sec: float | None = None,
        format: str | None = None,
        fixed_widths: tuple[int, ...] | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> "TableEntry | MultiFileEntry":
        """Attach one flat file (still no I/O beyond an existence check).

        ``format`` selects the file's dialect (see
        :data:`repro.flatfile.dialects.FORMATS`); ``None`` keeps the
        plain delimited substrate, ``"auto"`` defers to the dialect
        sniffer on first real use of the file.

        A ``path`` containing glob wildcards (``*``, ``?``, ``[``) or
        naming a directory attaches a *multi-file* table: every matching
        part file is served with its own fingerprint and learned state,
        and the part set is re-discovered on each query.  The pattern
        may match nothing yet — the first query then fails cleanly, and
        succeeds as soon as a part file appears.
        """
        key = name.lower()
        if key in self.entries:
            raise CatalogError(f"table {name!r} is already attached")
        text = str(path)
        if has_glob_magic(text) or Path(path).is_dir():
            multi = MultiFileEntry(
                name=name,
                pattern=text,
                delimiter=delimiter,
                bandwidth_bytes_per_sec=bandwidth_bytes_per_sec,
                format=format,
                fixed_widths=fixed_widths,
                fault_plan=fault_plan,
            )
            self.entries[key] = multi
            return multi
        entry = TableEntry(
            name=name,
            file=FlatFile(
                Path(path),
                delimiter=delimiter,
                bandwidth_bytes_per_sec=bandwidth_bytes_per_sec,
                format=format,
                fixed_widths=fixed_widths,
                fault_plan=fault_plan,
            ),
        )
        self.entries[key] = entry
        return entry

    def detach(self, name: str) -> None:
        key = name.lower()
        if key not in self.entries:
            raise CatalogError(f"table {name!r} is not attached")
        del self.entries[key]

    def get(self, name: str) -> "TableEntry | MultiFileEntry":
        key = name.lower()
        if key not in self.entries:
            raise CatalogError(
                f"table {name!r} is not attached; call attach(name, path) first"
            )
        return self.entries[key]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.entries

    def names(self) -> list[str]:
        return [e.name for e in self.entries.values()]
