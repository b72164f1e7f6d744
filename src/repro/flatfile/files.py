"""Flat-file handles: fingerprints, counted reads, simulated I/O cost.

A :class:`FlatFile` wraps one raw data file on disk.  It is the only place
in the library that actually reads flat-file bytes, which gives us three
things for free everywhere else:

* **accounting** — every byte read from raw files is counted, so benches
  can report "bytes touched" next to wall-clock time;
* **invalidation** — the fingerprint taken when data was loaded can be
  compared against the file's current state to detect edits (section 5.4);
* **simulated I/O cost** — an optional bandwidth throttle converts bytes
  read into sleep time, recreating disk-bound behaviour (e.g. the Figure 1a
  memory-wall knee) on machines whose page cache would otherwise hide it.
"""

from __future__ import annotations

import hashlib
import io
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import FlatFileError
from repro.faults import FaultPlan, retry_io
from repro.flatfile.dialects import FormatAdapter, make_adapter, sniff_format


def decode_utf8(data: bytes, source: object, offset: int = 0) -> str:
    """Decode raw file bytes; invalid UTF-8 is a :class:`FlatFileError`.

    ``source`` names the file and ``offset`` is where ``data`` starts in
    it, so the error points at the file byte that breaks the encoding.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FlatFileError(
            f"{source} is not valid UTF-8: {exc.reason} at byte "
            f"{offset + exc.start}"
        ) from exc


def window_totals(
    starts: np.ndarray, ends: np.ndarray, max_gap: int
) -> tuple[int, int]:
    """``(window_bytes, windows)`` of ranges in file order (starts and ends
    both): ranges at most ``max_gap`` bytes apart merge into one window,
    so the window bytes are the extent less every wider gap."""
    if not len(starts):
        return 0, 0
    gaps = starts[1:] - ends[:-1]
    wide = gaps > max_gap
    extent = int(ends[-1] - starts[0])
    return extent - int(gaps.sum(where=wide)), int(np.count_nonzero(wide)) + 1


@dataclass
class FileWindows:
    """The blocks read for several coalesced windows of one file,
    addressable by absolute file offsets.

    ``starts[i]``/``ends[i]`` are the file-offset bounds of block ``i``
    (sorted, disjoint) and ``offsets[i]`` is where block ``i`` begins
    inside :attr:`buffer`.  A block is one contiguous run of file bytes,
    so it also holds the gaps between the windows it covers:
    :attr:`buffer_bytes` is what was physically read, while
    :attr:`window_bytes` is the coalesced window bytes that
    ``bytes_read`` accounts.  A first block that starts at byte 0 sits at
    buffer offset 0, so its fields are at their file offsets.
    """

    starts: np.ndarray
    ends: np.ndarray
    offsets: np.ndarray
    buffer: bytes | memoryview
    window_bytes: int

    def shift(self, positions: np.ndarray) -> np.ndarray | int:
        """What to add to file offsets ``positions`` to index :attr:`buffer`:
        one number, found with no search, when one block was read, else
        one per position, from its block."""
        positions = np.asarray(positions, dtype=np.int64)
        if len(self.starts) == 1:
            lo, hi = self.starts[0], self.ends[0]
            if len(positions) and not lo <= positions.min() <= positions.max() <= hi:
                raise FlatFileError("file offset outside every read window")
            return int(self.offsets[0] - lo)
        idx = np.searchsorted(self.starts, positions, side="right") - 1
        if (idx < 0).any() or (positions > self.ends[idx]).any():
            raise FlatFileError("file offset outside every read window")
        return (self.offsets - self.starts)[idx]

    @property
    def buffer_bytes(self) -> int:
        return len(self.buffer)


#: Bytes hashed from each end of a file for the fingerprint's content
#: probe (two small preads; never counted as engine I/O).
PROBE_BYTES = 4096


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def content_probe(path: Path | str, size: int) -> tuple[bytes, bytes]:
    """Separate digests of the file's head and tail regions.

    The head digest covers bytes ``[0, min(PROBE_BYTES, size))`` and the
    tail digest bytes ``[max(0, size - PROBE_BYTES), size)``.  Keeping
    them separate (rather than one combined digest) is what makes pure
    tail-appends recognizable: after an append the old fingerprint's
    regions are still present in the grown file and can be re-probed and
    compared, region by region.  Bounded, unaccounted I/O.
    """
    with open(path, "rb") as f:  # seek+read, not os.pread: portable
        head = _digest(f.read(min(PROBE_BYTES, max(size, 0))))
        tail_start = max(0, size - PROBE_BYTES)
        f.seek(tail_start)
        tail = _digest(f.read(size - tail_start))
    return head, tail


@dataclass(frozen=True)
class FileFingerprint:
    """Identity of a file's contents, shared by every staleness check.

    Hashing whole contents would be exact but costs a full read, so the
    fingerprint layers cheap evidence: size + mtime_ns (the classic
    build-system compromise), the inode (free from the same ``stat``;
    catches atomic replacement via ``os.replace`` even when size and
    mtime collide), and a bounded content probe — separate head and tail
    digests (catches the pathological in-place same-size rewrite whose
    mtime was forced back, and lets :func:`detect_tail_append` recognize
    pure appends by re-probing the old regions of the grown file).  One
    mechanism, one strength: the adaptive store's auto-invalidation and
    the query-result cache both key on this, so the cache can never
    outlive data the store would consider fresh or vice versa.
    """

    size: int
    mtime_ns: int
    ino: int = 0
    head: bytes = b""
    tail: bytes = b""

    @classmethod
    def of(cls, path: Path) -> "FileFingerprint":
        # The file can be deleted, truncated or replaced between the
        # stat and the probe reads; fold that race into the library's
        # error taxonomy instead of leaking a raw OSError mid-check.
        try:
            st = os.stat(path)
            head, tail = content_probe(path, st.st_size)
        except OSError as exc:
            raise FlatFileError(
                f"cannot fingerprint flat file {path}: {exc}"
            ) from exc
        return cls(
            size=st.st_size,
            mtime_ns=st.st_mtime_ns,
            ino=st.st_ino,
            head=head,
            tail=tail,
        )

    def as_manifest(self) -> dict:
        """JSON-serializable form, for the persistent store's manifests."""
        return {
            "size": self.size,
            "mtime_ns": self.mtime_ns,
            "ino": self.ino,
            "head": self.head.hex(),
            "tail": self.tail.hex(),
        }

    @classmethod
    def from_manifest(cls, data: dict) -> "FileFingerprint":
        """Inverse of :meth:`as_manifest` (raises on malformed input)."""
        return cls(
            size=int(data["size"]),
            mtime_ns=int(data["mtime_ns"]),
            ino=int(data["ino"]),
            head=bytes.fromhex(data["head"]),
            tail=bytes.fromhex(data["tail"]),
        )


def detect_tail_append(
    path: Path | str, old: FileFingerprint, new: FileFingerprint
) -> bool:
    """Is the file at ``path`` the old contents plus appended bytes?

    True only when the file grew and the region the old fingerprint
    covered is still byte-identical: the old head region ``[0,
    min(PROBE_BYTES, old.size))`` and the old tail region ``[max(0,
    old.size - PROBE_BYTES), old.size)`` of the *current* file must
    re-digest to the old fingerprint's head/tail values.  Any head edit,
    truncation, same-size rewrite or inode swap fails the check; any
    I/O error (the file may be changing under us) conservatively reports
    ``False`` so callers fall back to full invalidation.
    """
    if old is None or new is None:
        return False
    if new.size <= old.size or old.size <= 0:
        return False
    if old.ino and new.ino and old.ino != new.ino:
        return False
    if not old.head or not old.tail:
        return False
    try:
        with open(path, "rb") as f:
            head = f.read(min(PROBE_BYTES, old.size))
            if _digest(head) != old.head:
                return False
            tail_start = max(0, old.size - PROBE_BYTES)
            f.seek(tail_start)
            tail = f.read(old.size - tail_start)
            if _digest(tail) != old.tail:
                return False
    except OSError:
        return False
    return True


@dataclass
class IOStats:
    """Counters of raw-file activity, aggregated per :class:`FlatFile`."""

    bytes_read: int = 0
    read_calls: int = 0
    full_scans: int = 0
    #: Reads re-attempted after a transient I/O error (injected or real).
    retries: int = 0

    def merge(self, other: "IOStats") -> None:
        self.bytes_read += other.bytes_read
        self.read_calls += other.read_calls
        self.full_scans += other.full_scans
        self.retries += other.retries


@dataclass
class FlatFile:
    """Handle to one raw data file.

    Parameters
    ----------
    path:
        Location of the file on disk.
    delimiter:
        Field separator for delimited formats; the paper uses CSV so the
        default is ``","``.
    bandwidth_bytes_per_sec:
        Optional simulated read bandwidth (see module docstring).
    format:
        Dialect selection: ``None``/``"csv"`` for the plain delimited
        substrate, one of :data:`repro.flatfile.dialects.FORMATS`, a
        ready :class:`~repro.flatfile.dialects.FormatAdapter` instance,
        or ``"auto"`` to sniff the dialect lazily from a bounded sample
        on first use (attach stays I/O-free).
    fixed_widths:
        Field widths for ``format="fixed-width"``.
    """

    path: Path
    delimiter: str = ","
    bandwidth_bytes_per_sec: float | None = None
    stats: IOStats = field(default_factory=IOStats)
    format: "str | FormatAdapter | None" = None
    fixed_widths: tuple[int, ...] | None = None
    #: Deterministic fault injection (None in production: checks no-op).
    fault_plan: FaultPlan | None = None

    #: Bytes the lazy dialect sniffer samples from the head of the file.
    _SNIFF_BYTES = 1 << 16

    def __post_init__(self) -> None:
        self.path = Path(self.path)
        if not self.path.exists():
            raise FlatFileError(f"flat file does not exist: {self.path}")
        # Shared counters are engine-wide truth; the thread-local mirror
        # lets a concurrently-serving engine compute *per-query* byte
        # deltas without attributing another thread's I/O to this query
        # (all of one query's raw reads are counted on its calling
        # thread).
        self._stats_lock = threading.Lock()
        self._thread_stats = threading.local()
        if isinstance(self.format, FormatAdapter):
            self._adapter: FormatAdapter | None = self.format
        else:
            # "auto" resolves to None here; the property sniffs on demand.
            self._adapter = make_adapter(
                self.format, self.delimiter, self.fixed_widths
            )

    @property
    def adapter(self) -> FormatAdapter:
        """The file's dialect adapter, sniffing on first use under "auto"."""
        if self._adapter is None:
            self._adapter = sniff_format(
                self._read_sniff_sample(), source=str(self.path)
            )
        return self._adapter

    def reset_format_state(self) -> None:
        """Drop dialect state derived from file contents (file edited).

        A sniffed adapter is re-sniffed on next use; an explicit adapter
        keeps its identity but forgets any learned per-file state (e.g.
        JSON-lines column order).
        """
        if self._adapter is not None:
            if isinstance(self.format, FormatAdapter) or self.format != "auto":
                self._adapter.reset()
            else:
                self._adapter = None

    def _read_head_sample(self) -> tuple[str, bool]:
        """Bounded decodable text from the file head, + truncation flag.

        A truncated sample is cut at its last newline: ``\\n`` is never
        part of a UTF-8 multi-byte sequence, so the prefix decodes
        cleanly.  Shared by the dialect sniffer and the sampling path
        for dialects whose records may span lines.
        """
        with open(self.path, "rb") as f:
            data = f.read(self._SNIFF_BYTES)
            truncated = len(data) == self._SNIFF_BYTES and f.read(1) != b""
        self._account(len(data), full_scan=False)
        if truncated:
            cut = data.rfind(b"\n")
            data = data[: cut + 1] if cut != -1 else b""
        return decode_utf8(data, self.path), truncated

    def _read_sniff_sample(self) -> str:
        return self._read_head_sample()[0]

    # ------------------------------------------------------------------ io

    def size_bytes(self) -> int:
        return os.stat(self.path).st_size

    def fingerprint(self) -> FileFingerprint:
        return FileFingerprint.of(self.path)

    def _account(self, nbytes: int, full_scan: bool, calls: int = 1) -> None:
        with self._stats_lock:
            self.stats.bytes_read += nbytes
            self.stats.read_calls += calls
            if full_scan:
                self.stats.full_scans += 1
        tls = self._thread_stats
        tls.bytes_read = getattr(tls, "bytes_read", 0) + nbytes
        tls.read_calls = getattr(tls, "read_calls", 0) + calls
        if self.bandwidth_bytes_per_sec:
            # Outside the lock: the simulated disk may be read by many
            # threads at once (that overlap is what bench_concurrent
            # measures).
            time.sleep(nbytes / self.bandwidth_bytes_per_sec)

    def thread_io_totals(self) -> tuple[int, int]:
        """This thread's cumulative (bytes read, read calls) on this file.

        The engine snapshots these before/after a query to report exact
        per-query raw I/O even while other threads hit the same file.
        """
        tls = self._thread_stats
        return getattr(tls, "bytes_read", 0), getattr(tls, "read_calls", 0)

    def thread_io_retries(self) -> int:
        """This thread's cumulative read retries on this file."""
        return getattr(self._thread_stats, "retries", 0)

    # --------------------------------------------------- faults and retry

    def _maybe_fault(self, point: str) -> None:
        if self.fault_plan is not None:
            self.fault_plan.check(point)

    def _truncated(self, data: bytes) -> bytes:
        """Apply an injected short read to ``data`` (no-op in production)."""
        if self.fault_plan is not None:
            return self.fault_plan.truncate("flatfile.short_read", data)
        return data

    def _count_retry(self, attempt: int, exc: OSError) -> None:
        with self._stats_lock:
            self.stats.retries += 1
        tls = self._thread_stats
        tls.retries = getattr(tls, "retries", 0) + 1

    def _read_retrying(self, fn, what: str):
        """Run one read attempt function under bounded retry.

        Transient ``OSError`` (including injected faults and short
        reads) is retried with backoff; a persistent failure surfaces as
        the taxonomy :class:`FlatFileError` so callers — and the wire —
        never see a raw ``OSError`` from the read path.
        """
        try:
            return retry_io(fn, on_retry=self._count_retry)
        except FlatFileError:
            raise
        except OSError as exc:
            raise FlatFileError(f"cannot read {what}: {exc}") from exc

    def read_all_bytes(self) -> bytes:
        """Read and return the entire file's raw bytes (one full scan).

        The cold-scan entry of the vectorized tokenization kernel: the
        kernel frames rows and fields over these bytes directly, so
        pure-ASCII files never materialize a decoded Python string at all.
        """

        def once() -> bytes:
            self._maybe_fault("flatfile.read")
            # Short-read detection: fewer bytes than the file holds means
            # a read truncated mid-flight, never valid data.  ``>=`` not
            # ``==``: a legitimate tail-append may land between the stat
            # and the read, and the extra bytes are real file contents.
            expected = os.stat(self.path).st_size
            data = self._truncated(self.path.read_bytes())
            if len(data) < expected:
                raise OSError(
                    f"short read of {self.path}: "
                    f"{len(data)} of {expected} bytes"
                )
            return data

        data = self._read_retrying(once, f"flat file {self.path}")
        self._account(len(data), full_scan=True)
        return data

    def read_range_bytes(self, start: int, end: int) -> bytes:
        """Read raw bytes ``[start, end)`` (accounted, not a full scan).

        The append-extension path reads exactly the appended tail region
        through this, so per-query byte accounting reflects that an
        extended table re-read only the new bytes.
        """
        if start < 0 or end < start:
            raise FlatFileError(f"bad byte range [{start}, {end})")

        def once() -> bytes:
            self._maybe_fault("flatfile.read")
            with open(self.path, "rb") as f:
                f.seek(start)
                data = self._truncated(f.read(end - start))
            # Callers derive ranges from the positional map or the
            # fingerprint, so a short range read is always truncation.
            if len(data) != end - start:
                raise OSError(
                    f"short read of {self.path} range [{start}, {end}): "
                    f"got {len(data)} bytes"
                )
            return data

        data = self._read_retrying(
            once, f"{self.path} range [{start}, {end})"
        )
        self._account(len(data), full_scan=False)
        return data

    def read_windows(
        self, starts: np.ndarray, ends: np.ndarray, max_gap: int = 0
    ) -> FileWindows:
        """Read many byte ranges in file order in a few block reads.

        The ranges must be in file order, starts and ends both; they may
        overlap or touch.  The selective-read path hands over the
        positional map's padded field ranges, which are (the loader's
        span checks reject a map whose spans are not), so nothing is
        sorted here.  Ranges at most ``max_gap`` bytes apart merge into
        one window (:func:`window_totals`), and only the windows are
        accounted, never the whole file: ``bytes_read`` is the window
        bytes and ``read_calls`` the window count.

        The windows are read in *blocks*: windows at most
        :attr:`_BLOCK_GAP` bytes apart (``io.DEFAULT_BUFFER_SIZE``, the
        span ``BufferedReader`` streams through on a per-window
        seek+read anyway, so physical I/O does not grow) share one
        block, and byte 0 counts as a window start, so a first window
        that close to the file head starts its block there.  Each block
        is ``readinto`` its slice of one ``np.empty`` buffer, never
        zeroed first.  A caller cuts its fields straight out of that
        buffer through :meth:`FileWindows.shift`: one number when one
        block was read (0 from byte 0, as on a next-column load), else a
        search of the few blocks, never of the windows.
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        if max_gap < 0:
            raise FlatFileError(f"max_gap must be non-negative, got {max_gap}")
        if len(starts) != len(ends):
            raise FlatFileError(f"{len(starts)} range starts but {len(ends)} ends")
        window_bytes, n = window_totals(starts, ends, max_gap)
        if not n:
            return FileWindows(starts.copy(), ends.copy(), starts.copy(), b"", 0)
        limit = max(max_gap, self._BLOCK_GAP)
        cut = np.flatnonzero(starts[1:] - ends[:-1] > limit)
        blk_starts = np.append(0 if starts[0] <= limit else starts[0], starts[cut + 1])
        blk_ends = np.append(ends[cut], ends[-1])
        sizes = blk_ends - blk_starts
        # Not every disorder shows here, only what would misshape a read.
        if starts[0] < 0 or window_bytes < 0 or (sizes < 0).any():
            raise FlatFileError("read_windows: ranges out of file order")
        offsets = np.cumsum(sizes) - sizes
        expected = int(sizes.sum())

        def once() -> memoryview:
            self._maybe_fault("flatfile.read")
            buf = memoryview(np.empty(expected, dtype=np.uint8))
            got = 0
            with open(self.path, "rb") as f:
                for s, at, size in zip(
                    blk_starts.tolist(), offsets.tolist(), sizes.tolist()
                ):
                    f.seek(s)
                    got += f.readinto(buf[at : at + size])
            # Window bounds come from the positional map: every block
            # lies inside the file, so short is truncation.
            if len(self._truncated(buf[:got])) != expected:
                raise OSError(
                    f"short window read of {self.path}: expected "
                    f"{expected} bytes over {len(sizes)} blocks"
                )
            return buf

        buffer = self._read_retrying(once, f"{self.path} window reads")
        # One call for every window: the same totals, without a lock
        # round trip per window (one per row on a scattered column).
        self._account(window_bytes, full_scan=False, calls=n)
        return FileWindows(blk_starts, blk_ends, offsets, buffer, window_bytes)

    #: Windows at most this far apart share one block read.
    _BLOCK_GAP = io.DEFAULT_BUFFER_SIZE

    # --------------------------------------------------------------- lines

    def sample_rows(self, limit: int = 128) -> list[list[str]]:
        """Tokenize up to ``limit`` leading rows for schema inference.

        This is a bounded read: schema detection must stay cheap even for
        huge files, so only the leading lines (or, for dialects whose
        records can span lines, a bounded head sample) are touched.
        Rows come back as *logical* (decoded) field values.
        """
        adapter = self.adapter
        if adapter.records_are_lines:
            # Records are lines: read lazily, stop at ``limit`` rows.
            rows: list[list[str]] = []
            nbytes = 0
            with open(self.path, "rb") as f:
                for raw in f:
                    line = decode_utf8(raw, self.path, nbytes).rstrip("\r\n")
                    nbytes += len(raw)
                    if line:
                        rows.append(adapter.row_values(line))
                    if len(rows) >= limit:
                        break
            self._account(nbytes, full_scan=False)
            return rows
        # Records may span lines (quoted CSV): frame a bounded head
        # sample with the adapter and drop the last record when the
        # sample was cut — it might end mid-quote.
        text, truncated = self._read_head_sample()
        while True:
            try:
                starts, ends = adapter.row_bounds(text)
                break
            except FlatFileError:
                # The cut can land inside a quoted field; trim trailing
                # lines until the sample frames cleanly (bounded: the
                # sample is at most _SNIFF_BYTES).
                if not truncated or not text:
                    raise
                nl = text.rfind("\n", 0, max(len(text) - 1, 0))
                text = text[: nl + 1] if nl > 0 else ""
        if truncated and len(starts):
            starts, ends = starts[:-1], ends[:-1]
        rows = []
        for s, e in zip(starts.tolist(), ends.tolist()):
            rows.append(adapter.row_values(text[int(s) : int(e)]))
            if len(rows) >= limit:
                break
        return rows
