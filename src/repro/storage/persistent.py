"""Persistent adaptive store: learned state that survives restarts.

Everything the engine learns about a flat file that a later query reads —
the positional map's field spans, the (possibly widened) schema, zone
maps, and fully loaded column arrays — is derived state: expensive to
acquire, free to throw away, and deterministic given the file's bytes.
This module makes that state *addressable*: one on-disk entry per source
file, keyed by the same content-probing
:class:`~repro.flatfile.files.FileFingerprint` that drives in-memory
auto-invalidation, so a fresh engine (or a co-located worker) starts
restart-warm instead of re-paying the cold scan the paper's Figure 1
amortizes.

Layout (one entry directory per source path, under ``store_dir``)::

    <store_dir>/<stem>-<path-digest>/
        manifest.json       # version 6: fingerprint, schema, posmap
                            # (nrows, sep, columns), zone maps +
                            # column index
        pm.bin              # the positional map's frame: int64 byte
                            # offsets, row-major, nrows x (K + 2)
                            # when columns 0..K are known (memmapped)
        col_<i>.bin         # numeric column i, little-endian (memmapped)
        col_<i>.codes       # string column i: int32 code per row
                            # (memmapped)
        col_<i>.dictionary  # string column i: its distinct values as
                            # UTF-8 records, each ended by a 0xFF byte,
                            # in code order

``pm.bin`` is the frame :meth:`PositionalMap.export` hands over; this
module does not interpret it.  It is row-major, so a tail-append adds
rows at its end like any column file; a frame of another width (the
dialect loop learned a wider prefix) rewrites it whole.  Only state some
query route reads is stored.  An entry written under another manifest
``version`` is a miss, and the next save wipes and rewrites it (a
version 5 ``pm.bin`` of a UTF-8 file held character offsets).

Invariants
----------

* **Fingerprint-keyed.**  The manifest records the full fingerprint of
  the source file (size, mtime_ns, inode, head/tail content probe).  A
  restore compares it against the fingerprint captured *before* any raw
  read; any mismatch — including a same-size forged-mtime rewrite, which
  the content probe catches — deletes the entry and reports a miss.  The
  one exception is a verified pure tail-append: the entry restores as the
  state of the file's old prefix, and the engine's next save extends its
  arrays in place under the new fingerprint (see *Append-only*).
* **Crash-safe; the manifest is the commit point.**  The manifest alone
  says how many rows (and blob bytes) of each array file are valid;
  readers map exactly that prefix and ignore anything past it.  Whole
  files are written to a temp name and ``os.replace``\\ d into place;
  appended rows are ``pwrite``\\ n at their position past the committed
  prefix.  Every touched file is fsynced before the manifest is swapped
  atomically, last.  A crash at any point leaves the old complete entry
  plus orphans or a torn tail the reader ignores — never a torn entry.
  Corruption (arrays shorter than the manifest says, garbage manifests)
  is detected by size validation and reported as a cold miss, never a
  query error.
* **Append-only.**  When the engine proves the snapshot extends the
  (fingerprint, nrows) the on-disk manifest describes
  (:attr:`PersistedState.base`), a save writes only rows
  ``[base_rows, nrows)`` of each array the manifest already names, at
  their byte position — never ``O_APPEND``, never a truncate, and never
  trusting bytes already past the committed prefix (a torn tail from a
  crashed save is overwritten, not reused).  Learned state is
  deterministic given the file's bytes, so racing writers write
  identical bytes, and a reader mapping the committed prefix never sees
  a file shrink under it.  A first save, a manifest describing anything
  else, a changed schema (a widened column) or a header change take the
  wipe-and-rewrite path.
  A string column's dictionary only grows at its end (see
  :mod:`repro.strings`), so a tail-append writes the tail of its codes
  file and the new entries of its dictionary file.  The manifest keeps a
  digest of the committed dictionary bytes: a column whose in-memory
  dictionary does not start with them (it was assembled in another
  order) rewrites both files whole instead.
* **Shared pages.**  Numeric columns, string codes and the frame restore
  as read-only mapped arrays: plain ``np.ndarray`` views of an
  ``np.memmap``, which keep the mapping alive through ``.base`` without
  the subclass's cost on every operation.  Co-located engines, in one
  process or several, mapping the same entry share one physical copy of
  the pages, and "evicting" a mapped column just drops the mapping — the
  file stays for the next engine.  Only a string column's dictionary —
  one entry per distinct value — is decoded onto the heap, so a restored
  string column counts against the heap budget.  Its codes are read once
  on restore, to check that each names a dictionary entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.faults import FaultPlan
from repro.flatfile.files import FileFingerprint, detect_tail_append
from repro.flatfile.positions import PositionalMap
from repro.flatfile.schema import DataType
from repro.strings import CODE_DTYPE, StringColumn

if TYPE_CHECKING:  # import would be circular at runtime (core -> storage)
    from repro.core.zonemaps import ZoneMapIndex
    from repro.storage.catalog import TableEntry

_VERSION = 6

_ITEMSIZE = 8  # int64 / float64; the only numeric widths the engine has

#: Ends each string dictionary record, and what it decodes to under
#: ``surrogateescape``.
_END = b"\xff"
_END_CHAR = "\udcff"


@dataclass
class PersistedState:
    """A restartable snapshot of one table entry's learned state."""

    source: Path
    fingerprint: FileFingerprint
    nrows: int
    has_header: bool
    #: ``(name, DataType.value)`` in file order — the *widened* schema.
    schema: list[tuple[str, str]]
    positional_map: PositionalMap
    #: Fully loaded columns only, keyed by schema-cased name.
    columns: dict[str, "np.ndarray | StringColumn"]
    #: Per-zone min/max/null statistics (None when none were learned).
    zone_maps: "ZoneMapIndex | None" = None
    #: ``(fingerprint, nrows)`` of a store entry this state provably
    #: extends row for row (it was restored from or saved as that, then
    #: grown only by verified tail-appends); None when no such proof
    #: exists.  :meth:`PersistentStore.save` appends instead of
    #: rewriting only when the manifest on disk still describes it.
    base: tuple[FileFingerprint, int] | None = None

    @classmethod
    def from_entry(
        cls, entry: "TableEntry", fingerprint: FileFingerprint
    ) -> "PersistedState":
        """Snapshot an entry (caller holds at least the table read lock).

        Arrays are captured by reference: loaded column values and learned
        offsets are append-only/immutable by convention, and numpy
        refcounting keeps them alive even if the store evicts the column
        while the background writer is still serializing it.
        """
        pm = entry.positional_map
        columns: dict[str, np.ndarray | StringColumn] = {}
        if entry.table is not None:
            for pc in entry.table.columns.values():
                if pc.values is not None and pc.is_fully_loaded:
                    columns[pc.name] = pc.values
        return cls(
            source=entry.file.path,
            fingerprint=fingerprint,
            nrows=entry.table.nrows if entry.table is not None else 0,
            has_header=entry.has_header,
            schema=[(c.name, c.dtype.value) for c in entry.ensure_schema().columns],
            positional_map=pm.copy(),
            columns=columns,
            zone_maps=(
                entry.zone_maps.snapshot() if entry.zone_maps is not None else None
            ),
            base=entry.store_base,
        )


@dataclass
class LoadOutcome:
    """Result of a restore probe: a state, a plain miss, or a stale hit."""

    state: PersistedState | None
    #: True when an entry existed but its fingerprint mismatched the
    #: current file (the entry has been deleted).
    invalidated: bool = False
    #: True when the fingerprint mismatch was a pure tail-append: the
    #: state is valid for a byte-identical *prefix* of the live file and
    #: carries the stored (old) fingerprint; the engine must extend it
    #: over the appended region before serving new rows.  The on-disk
    #: entry is kept, not deleted: the engine's next persist writes only
    #: the appended rows onto its arrays and commits a manifest under the
    #: new fingerprint.
    appended: bool = False


@dataclass
class PersistentStoreStats:
    """I/O accounting for the persistent store."""

    bytes_written: int = 0
    bytes_read: int = 0
    entries_written: int = 0
    entries_restored: int = 0


# ---------------------------------------------------------------------------
# string-column codec: a codes file beside a dictionary file
# ---------------------------------------------------------------------------


def encode_strings(dictionary: Iterable[str]) -> bytes:
    """Dictionary entries as UTF-8 records, each ended by a 0xFF byte
    (a byte UTF-8 never uses).  Records only follow one another, so new
    entries append to an existing file."""
    return b"".join(value.encode("utf-8") + _END for value in dictionary)


def decode_strings(data: bytes, entries: int) -> np.ndarray:
    """Inverse of :func:`encode_strings` over ``entries`` records; raises
    ValueError unless ``data`` holds exactly that many.  One decode of
    the whole file: every 0xFF byte decodes to U+DCFF, a character no
    UTF-8 text holds, so splitting there gives the entries."""
    texts = data.decode("utf-8", "surrogateescape").split(_END_CHAR)
    if texts.pop() != "" or len(texts) != entries:
        raise ValueError("string dictionary does not match its entry count")
    out = np.empty(entries, dtype=object)
    out[:] = texts
    return out


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


@dataclass
class PersistentStore:
    """Fingerprint-keyed on-disk cache of learned per-file state."""

    directory: Path
    stats: PersistentStoreStats = field(default_factory=PersistentStoreStats)
    #: Deterministic fault injection (None in production: checks no-op).
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -------------------------------------------------------------- paths

    def entry_dir(self, source: Path | str) -> Path:
        """The entry directory for one source file path.

        Keyed by the *resolved* path so every engine pointing at the same
        file — however spelled — lands on the same entry; a short
        sanitized stem keeps the directory humanly inspectable.
        """
        resolved = str(Path(source).resolve())
        digest = hashlib.blake2b(resolved.encode(), digest_size=8).hexdigest()
        stem = re.sub(r"[^A-Za-z0-9._-]", "_", Path(source).name)[:40] or "entry"
        return self.directory / f"{stem}-{digest}"

    # ------------------------------------------------------------- writing

    def save(self, state: PersistedState) -> None:
        """Persist a snapshot crash-safely, writing only what is new.

        The manifest on disk decides how many rows of each array are
        already there (:meth:`_committed_rows`): all of them under the
        same fingerprint (persisting a newly loaded column does not
        rewrite its siblings), the base's rows when ``state`` provably
        extends what the manifest describes (a tail-append writes its
        tail), none otherwise (the entry is wiped and rewritten).  Every
        touched file is fsynced before the manifest is replaced, last and
        atomically: the manifest swap is the commit point.
        """
        if self.fault_plan is not None:
            self.fault_plan.check("persist.write")
        edir = self.entry_dir(state.source)
        old = self._read_manifest(edir)
        committed = self._committed_rows(old, state)
        if committed is None:
            self._wipe(edir)
            old, committed = {}, 0
        edir.mkdir(parents=True, exist_ok=True)
        old_cols = old.get("columns") or {}

        pm_manifest, frame = state.positional_map.export()
        old_pm = old.get("positional_map") or {}
        known = old_pm.get("file")
        if (old_pm.get("nrows"), old_pm.get("sep"), old_pm.get("columns")) != (
            committed,
            pm_manifest["sep"],
            pm_manifest["columns"],
        ):
            known = None  # the old frame does not hold these rows' prefix
        pm_manifest["file"] = (
            None
            if frame is None
            else self._put_array(edir, "pm.bin", frame, known, committed)
        )

        index_of = {name.lower(): i for i, (name, _) in enumerate(state.schema)}
        col_manifest: dict = {}
        for name, values in state.columns.items():
            i = index_of[name.lower()]
            dtype = DataType(state.schema[i][1])
            known = old_cols.get(name.lower()) or {}
            if known.get("dtype") != dtype.value:
                known = {}  # widened since: the old bytes are another type
            entry = {"name": name, "dtype": dtype.value}
            if isinstance(values, StringColumn):
                entry.update(self._put_strings(edir, i, values, known, committed))
            else:
                data = np.ascontiguousarray(values, dtype=dtype.numpy_dtype)
                entry["file"] = self._put_array(
                    edir, f"col_{i}.bin", data, known.get("file"), committed
                )
            col_manifest[name.lower()] = entry

        manifest = {
            "version": _VERSION,
            "source": str(Path(state.source).resolve()),
            "fingerprint": state.fingerprint.as_manifest(),
            "nrows": state.nrows,
            "has_header": state.has_header,
            "schema": [[name, dtype] for name, dtype in state.schema],
            "positional_map": pm_manifest,
            "zone_maps": (
                state.zone_maps.as_manifest() if state.zone_maps else None
            ),
            "columns": col_manifest,
        }
        if self.fault_plan is not None:
            self.fault_plan.check("persist.commit")
        self._write_whole(
            edir / "manifest.json",
            json.dumps(manifest, ensure_ascii=False).encode("utf-8"),
        )
        self.stats.entries_written += 1

    @staticmethod
    def _committed_rows(old: dict, state: PersistedState) -> int | None:
        """Rows of ``state`` the entry on disk already holds, or None.

        All of them when the manifest carries the snapshot's own
        fingerprint; the base's rows when the engine proved the snapshot
        extends exactly the state the manifest describes — same
        fingerprint and row count as the base, same schema and header;
        None (rewrite the entry) in every other case.
        """
        if old.get("version") != _VERSION:
            return None
        if old.get("fingerprint") == state.fingerprint.as_manifest():
            return state.nrows if old.get("nrows") == state.nrows else None
        if state.base is None:
            return None
        base_fingerprint, base_rows = state.base
        extends = (
            old.get("fingerprint") == base_fingerprint.as_manifest()
            and old.get("nrows") == base_rows <= state.nrows
            and old.get("has_header") == state.has_header
            and old.get("schema") == [[n, d] for n, d in state.schema]
        )
        return base_rows if extends else None

    def _put_array(
        self,
        edir: Path,
        filename: str,
        values: np.ndarray,
        known: str | None,
        committed: int,
    ) -> str:
        """Write one array: only the rows past ``committed`` when the old
        manifest already names the file (``known``), all of it otherwise.
        A row is one item of a column, or one row of a row-major frame."""
        data = np.ascontiguousarray(values)
        offset = committed * data.strides[0]
        if (
            known == filename
            and len(data) >= committed
            and self._have(edir, filename, offset)
        ):
            self._write_at(edir / filename, data[committed:].ravel(), offset)
        else:
            # No copy: saved arrays are never written in place (grow/extend_tail concatenate).
            self._write_whole(edir / filename, data)
        return filename

    def _put_strings(
        self,
        edir: Path,
        i: int,
        values: StringColumn,
        known: dict,
        committed: int,
    ) -> dict:
        """Write string column ``i`` as its codes file plus its dictionary
        file.  When the old manifest names both and the in-memory
        dictionary starts with the committed entries (the digest
        matches), only the codes past ``committed`` and the new entries
        are written; both files are written whole otherwise."""
        codes_name, dict_name = f"col_{i}.codes", f"col_{i}.dictionary"
        dictionary = values.dictionary
        old_entries = known.get("entries")
        old_bytes = known.get("dictionary_bytes")
        prefix = b""
        extends = (
            known.get("dictionary") == dict_name
            and isinstance(old_entries, int)
            and isinstance(old_bytes, int)
            and old_entries <= len(dictionary)
            and self._have(edir, dict_name, old_bytes)
        )
        if extends:
            prefix = encode_strings(dictionary[:old_entries])
            extends = len(prefix) == old_bytes and _digest(prefix) == known.get(
                "digest"
            )
        codes = np.ascontiguousarray(values.codes, dtype=CODE_DTYPE)
        new = encode_strings(dictionary[old_entries:] if extends else dictionary)
        if extends:
            self._write_at(edir / dict_name, new, old_bytes)
        else:
            self._write_whole(edir / dict_name, new)
        return {
            "codes": self._put_array(
                edir,
                codes_name,
                codes,
                known.get("codes") if extends else None,
                committed,
            ),
            "dictionary": dict_name,
            "entries": len(dictionary),
            "dictionary_bytes": len(prefix) + len(new),
            "digest": _digest(prefix + new),
        }

    def _write_whole(self, path: Path, data: bytes | np.ndarray) -> None:
        """Replace ``path`` atomically (temp file, fsync, rename).

        ``os.replace`` is atomic on POSIX, so a reader sees the old
        complete file or the new one, never a torn write; a crash
        mid-write leaves only a ``.tmp`` orphan, which readers ignore.
        """
        tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self.stats.bytes_written += memoryview(data).nbytes

    def _write_at(self, path: Path, data, offset: int) -> None:
        """``pwrite`` ``data`` at ``offset`` of an existing file, then fsync.

        Never ``O_APPEND`` and never a truncate: the committed bytes
        before ``offset`` — and any reader mapping them — are untouched,
        and whatever a crashed save left past ``offset`` is overwritten.
        """
        view = memoryview(data).cast("B")
        if not view.nbytes:
            return
        fd = os.open(path, os.O_WRONLY)
        try:
            done = 0
            while done < view.nbytes:
                done += os.pwrite(fd, view[done:], offset + done)
            os.fsync(fd)
        finally:
            os.close(fd)
        self.stats.bytes_written += view.nbytes

    @staticmethod
    def _have(edir: Path, filename: str | None, expected_bytes: int) -> bool:
        """Does ``filename`` hold at least ``expected_bytes`` (a longer
        file carries a torn tail past the committed prefix)?"""
        if not filename:
            return False
        try:
            return (edir / filename).stat().st_size >= expected_bytes
        except OSError:
            return False

    # ------------------------------------------------------------- reading

    def load(
        self, source: Path | str, fingerprint: FileFingerprint
    ) -> LoadOutcome:
        """Restore the entry for ``source``, validating its fingerprint.

        ``fingerprint`` must be captured from the live file *before* any
        raw read, so restored state carries the pre-read identity (the
        same branding rule as cold loads).  Any damage — garbage
        manifest, missing or mis-sized array file — is a plain miss.
        """
        if self.fault_plan is not None:
            self.fault_plan.check("persist.read")
        edir = self.entry_dir(source)
        manifest = self._read_manifest(edir)
        if not manifest or manifest.get("version") != _VERSION:
            return LoadOutcome(None)
        if manifest.get("fingerprint") != fingerprint.as_manifest():
            stored = self._stored_fingerprint(manifest)
            if stored is not None and detect_tail_append(
                source, stored, fingerprint
            ):
                # Appends aren't rewrites: the stored state describes a
                # byte-identical prefix of the live file.  Re-brand the
                # entry instead of deleting it — materialize under the
                # *stored* fingerprint and let the engine extend the
                # state over the appended region (the next persist then
                # writes just the appended rows and commits a manifest
                # under the new fingerprint).
                try:
                    state = self._materialize(edir, manifest, source, stored)
                except (OSError, ValueError, KeyError, TypeError):
                    self._wipe(edir)
                    return LoadOutcome(None, invalidated=True)
                self.stats.entries_restored += 1
                return LoadOutcome(state, appended=True)
            self._wipe(edir)
            return LoadOutcome(None, invalidated=True)
        try:
            state = self._materialize(edir, manifest, source, fingerprint)
        except (OSError, ValueError, KeyError, TypeError):
            return LoadOutcome(None)
        self.stats.entries_restored += 1
        return LoadOutcome(state)

    def _materialize(
        self,
        edir: Path,
        manifest: dict,
        source: Path | str,
        fingerprint: FileFingerprint,
    ) -> PersistedState:
        nrows = int(manifest["nrows"])
        schema = [(str(n), str(d)) for n, d in manifest["schema"]]
        for _, dtype in schema:
            DataType(dtype)  # validates

        pm_manifest = manifest.get("positional_map") or {}
        pm_file = pm_manifest.get("file")
        pm = PositionalMap.from_export(
            pm_manifest,
            None
            if pm_file is None
            else self._mapped_frame(
                edir,
                pm_file,
                (int(pm_manifest["nrows"]), int(pm_manifest["columns"]) + 1),
            ),
        )

        zone_maps = None
        if manifest.get("zone_maps"):
            from repro.core.zonemaps import ZoneMapIndex

            zone_maps = ZoneMapIndex.from_manifest(manifest["zone_maps"])

        columns: dict[str, np.ndarray] = {}
        for entry in (manifest.get("columns") or {}).values():
            name = str(entry["name"])
            dtype = DataType(entry["dtype"])
            values: np.ndarray | StringColumn
            if dtype.is_numeric:
                path = self._checked(edir, entry["file"], nrows * _ITEMSIZE)
                values = np.memmap(
                    path, dtype=dtype.numpy_dtype, mode="r", shape=(nrows,)
                ).view(np.ndarray)
            else:
                values = self._mapped_strings(edir, entry, nrows)
            columns[name] = values

        return PersistedState(
            source=Path(source),
            fingerprint=fingerprint,
            nrows=nrows,
            has_header=bool(manifest["has_header"]),
            schema=schema,
            positional_map=pm,
            columns=columns,
            zone_maps=zone_maps,
        )

    def _mapped_strings(self, edir: Path, entry: dict, nrows: int) -> StringColumn:
        """A string column: its codes memmapped, its dictionary decoded
        after its bytes match the manifest's digest.  Every code must
        name an entry, or the column is damage (a miss): checking reads
        the codes file once, 4 bytes a row, where a numeric column's
        pages are only mapped."""
        size = int(entry["dictionary_bytes"])
        with open(self._checked(edir, entry["dictionary"], size), "rb") as fh:
            data = fh.read(size)
        if _digest(data) != entry["digest"]:
            raise ValueError("string dictionary does not match its digest")
        self.stats.bytes_read += size
        codes = np.memmap(
            self._checked(edir, entry["codes"], nrows * CODE_DTYPE.itemsize),
            dtype=CODE_DTYPE,
            mode="r",
            shape=(nrows,),
        ).view(np.ndarray)
        entries = int(entry["entries"])
        if nrows and not (0 <= int(codes.min()) and int(codes.max()) < entries):
            raise ValueError(f"{entry['codes']}: a code names no dictionary entry")
        self.stats.bytes_read += codes.nbytes
        return StringColumn(codes, decode_strings(data, entries))

    def _mapped_frame(
        self, edir: Path, filename: str, shape: tuple[int, int]
    ) -> np.ndarray:
        return np.memmap(
            self._checked(edir, filename, shape[0] * shape[1] * _ITEMSIZE),
            dtype=np.int64,
            mode="r",
            shape=shape,
        ).view(np.ndarray)

    @staticmethod
    def _checked(edir: Path, filename: str, expected_bytes: int) -> Path:
        """Resolve an entry-local file, rejecting damage and path tricks.

        Only a file *shorter* than the manifest's committed prefix is
        damage; bytes past it are a torn tail the caller never reads.
        """
        name = str(filename)
        if "/" in name or name.startswith("."):
            raise ValueError(f"illegal manifest filename {name!r}")
        path = edir / name
        if path.stat().st_size < int(expected_bytes):
            raise ValueError(f"{name}: shorter than the manifest says (truncated)")
        return path

    @staticmethod
    def _stored_fingerprint(manifest: dict) -> FileFingerprint | None:
        """The manifest's recorded fingerprint, or None if malformed."""
        try:
            return FileFingerprint.from_manifest(manifest["fingerprint"])
        except (KeyError, TypeError, ValueError):
            return None

    def _read_manifest(self, edir: Path) -> dict:
        try:
            manifest = json.loads((edir / "manifest.json").read_text("utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            return {}
        return manifest if isinstance(manifest, dict) else {}

    # ------------------------------------------------------ invalidation

    def invalidate(self, source: Path | str) -> bool:
        """Drop the entry for ``source``; True when one existed."""
        edir = self.entry_dir(source)
        existed = (edir / "manifest.json").exists()
        self._wipe(edir)
        return existed

    def clear(self) -> int:
        """Drop every entry; returns the number of entries removed."""
        removed = 0
        for edir in self.directory.iterdir():
            if edir.is_dir():
                removed += 1 if (edir / "manifest.json").exists() else 0
                self._wipe(edir)
        return removed

    @staticmethod
    def _wipe(edir: Path) -> None:
        if not edir.exists():
            return
        # Manifest first: a concurrent reader that loses the race sees a
        # missing manifest (a miss), never a manifest naming gone files.
        # Races with a concurrent writer are tolerated, not fought: the
        # writer re-validates by fingerprint before its own manifest lands.
        try:
            (edir / "manifest.json").unlink(missing_ok=True)
            for f in edir.iterdir():
                f.unlink(missing_ok=True)
            edir.rmdir()
        except OSError:
            pass

    # --------------------------------------------------------- inspection

    def entries(self) -> list[dict]:
        """One summary dict per valid entry (for ``repro cache``)."""
        out: list[dict] = []
        if not self.directory.exists():
            return out
        for edir in sorted(self.directory.iterdir()):
            if not edir.is_dir():
                continue
            manifest = self._read_manifest(edir)
            if manifest.get("version") != _VERSION:
                continue  # a miss to every reader; the next save rewrites it
            out.append(
                {
                    "source": manifest.get("source", "?"),
                    "nrows": manifest.get("nrows"),
                    "columns": sorted(manifest.get("columns") or {}),
                    "positional_map_columns": list(
                        range(manifest["positional_map"]["columns"])
                    ),
                    "fingerprint_size": (manifest.get("fingerprint") or {}).get(
                        "size"
                    ),
                    "bytes_on_disk": sum(
                        f.stat().st_size for f in edir.iterdir() if f.is_file()
                    ),
                    "dir": str(edir),
                }
            )
        return out

    def bytes_on_disk(self) -> int:
        return sum(
            f.stat().st_size for f in self.directory.rglob("*") if f.is_file()
        )
