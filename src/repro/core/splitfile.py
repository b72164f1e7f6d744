"""File cracking: dynamic splitting of flat files (paper section 4).

"Both of these goals can be achieved if we incrementally and adaptively
split the file during the loading phase such as future loading steps can
locate the needed data much easier."

A :class:`SplitFileCatalog` tracks, for every column of an attached flat
file, where that column's raw text currently lives:

* in a **single file** (one value per line) — the column was tokenized by
  some earlier pass and written out on the side;
* in a **remainder file** — a vertical slice of the original file holding
  a contiguous range of not-yet-tokenized columns (initially, the original
  flat file itself holds columns ``0..ncols-1``).

Loading a column whose home is a remainder tokenizes the remainder up to
that column, writes one single file per newly tokenized column, writes a
new remainder for the columns to its right, and updates the catalog —
exactly the side-effect reorganization of section 4.2.  Each subsequent
read therefore touches fewer bytes and trivially tokenizable files, which
is where the Figure 4 "Split Files" curve gets its small peaks.

Split files are derived state that may be thrown away at any time.  Each
catalog owns a private temporary directory, made when the catalog is
created (on a table's first ``splitfiles`` load), and :meth:`destroy`
removes it: when the source file is edited, the table is detached, or
the engine is closed.  No two catalogs ever share a file.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import FlatFileError
from repro.flatfile.files import FlatFile, decode_utf8
from repro.flatfile.tokenizer import FieldSpans, TokenizerStats, tokenize_bytes


@dataclass
class ColumnHome:
    """Where one column's raw text lives right now."""

    kind: str  # 'original' | 'single' | 'remainder'
    file: FlatFile
    offset: int  # column index within the file
    skip_rows: int = 0  # header lines to skip (original file only)


@dataclass
class SplitResult:
    """Raw column texts produced by one split pass.

    Values are ready for bulk parsing: the spans of a single file's lines
    (:class:`~repro.flatfile.tokenizer.FieldSpans`), the NumPy field
    arrays a split cut out to write (``S`` bytes for ASCII text), or
    lists of ``str`` where the tokenizer took the dialect loop.
    """

    fields: dict[int, Sequence[str] | np.ndarray | FieldSpans]  # global column -> raw values
    stats: TokenizerStats
    files_written: int = 0


@dataclass
class SplitFileCatalog:
    """Split-file state for one attached flat file."""

    source: FlatFile
    ncols: int
    skip_rows: int = 0
    homes: dict[int, ColumnHome] = field(init=False)
    directory: Path = field(init=False)
    _counter: int = 0
    files_written: int = 0

    def __post_init__(self) -> None:
        self.homes = {
            c: ColumnHome("original", self.source, c, skip_rows=self.skip_rows)
            for c in range(self.ncols)
        }
        self.directory = Path(tempfile.mkdtemp(prefix="repro-splitfiles-"))

    # ------------------------------------------------------------- loading

    def fetch_columns(self, needed: list[int]) -> SplitResult:
        """Return raw text values for ``needed`` columns, splitting as we go.

        Groups the needed columns by their current home file so each file
        is read at most once per call.
        """
        out: dict[int, Sequence[str] | np.ndarray | FieldSpans] = {}
        stats = TokenizerStats()
        written = 0
        by_file: dict[int, list[int]] = {}
        file_of: dict[int, ColumnHome] = {}
        for col in sorted(set(needed)):
            if col < 0 or col >= self.ncols:
                raise FlatFileError(f"column {col} out of range (ncols={self.ncols})")
            home = self.homes[col]
            by_file.setdefault(id(home.file), []).append(col)
            file_of[id(home.file)] = home
        for fkey, cols in by_file.items():
            home = file_of[fkey]
            if home.kind == "single":
                for col in cols:
                    values, s = self._read_single(self.homes[col])
                    out[col] = values
                    stats.merge(s)
            else:
                got, s, w = self._split_from(home, cols)
                out.update(got)
                stats.merge(s)
                written += w
        self.files_written += written
        return SplitResult(out, stats, written)

    def _read_single(self, home: ColumnHome) -> tuple[FieldSpans, TokenizerStats]:
        """One value per line, as spans of the file's bytes."""
        data = home.file.read_all_bytes()
        ascii_only = data.isascii()
        # Characters, as the text route counts them; decoding also turns
        # invalid UTF-8 into a FlatFileError naming the file.
        chars = len(data) if ascii_only else len(decode_utf8(data, home.file.path))
        buf = np.frombuffer(data, dtype=np.uint8)
        # Every value, the last one and empty ones included, ends in a
        # newline (see _write_lines).
        ends = np.flatnonzero(buf == 0x0A)
        starts = np.concatenate(([0], ends + 1))[:-1]
        values = FieldSpans(
            data, starts, ends - starts, ascii_only=ascii_only, nul_free=b"\0" not in data
        )
        stats = TokenizerStats()
        stats.rows_scanned = len(values)
        stats.rows_emitted = len(values)
        stats.fields_tokenized = len(values)
        stats.chars_scanned = chars
        return values, stats

    def _split_from(
        self, home: ColumnHome, global_cols: list[int]
    ) -> tuple[dict[int, Sequence[str] | np.ndarray], TokenizerStats, int]:
        """Tokenize a remainder/original file and split it on the way out."""
        # Which global columns does this file hold, in file order?
        members = sorted(
            c for c, h in self.homes.items() if h.file is home.file
        )
        local_of = {c: self.homes[c].offset for c in members}
        width = len(members)
        max_needed_local = max(local_of[c] for c in global_cols)
        data = home.file.read_all_bytes()
        # A one-column remainder would hold the same bytes as that
        # column's single file, so tokenize the last column too.
        last = width - 1 if max_needed_local == width - 2 else max_needed_local
        local_needed = list(range(last + 1))
        result = tokenize_bytes(
            data,
            home.file.adapter,
            ncols=width,
            needed=local_needed,
            skip_rows=home.skip_rows,
            source=home.file.path,
        )
        out: dict[int, Sequence[str] | np.ndarray] = {}
        local_to_global = {local_of[c]: c for c in members}
        written = 0
        # Write one single file per tokenized column and repoint its home.
        # The fields are cut out once, for the file, and handed on as such.
        texts = {}
        for local in local_needed:
            gcol = local_to_global[local]
            values = result.fields[local]
            if isinstance(values, FieldSpans):
                values = values.values()
            texts[local] = values
            if gcol in global_cols:
                out[gcol] = values
            single_path = self.directory / f"col{gcol}.txt"
            _write_lines(single_path, values)
            written += 1
            self.homes[gcol] = ColumnHome("single", FlatFile(single_path), 0)
        # Write the non-tokenized tail columns into one new remainder.
        tail_locals = [loc for loc in range(width) if loc > last]
        if tail_locals:
            tail_path = self.directory / f"rem{self._counter}.txt"
            self._counter += 1
            self._write_remainder(
                decode_utf8(data, home.file.path), texts, tail_path, home
            )
            written += 1
            tail_file = FlatFile(tail_path, delimiter=home.file.adapter.delimiter)
            for new_local, local in enumerate(tail_locals):
                gcol = local_to_global[local]
                self.homes[gcol] = ColumnHome("remainder", tail_file, new_local)
        return out, result.stats, written

    def _write_remainder(
        self, text: str, fields: dict, tail_path: Path, home: ColumnHome
    ) -> None:
        """Write the untokenized right part of every row to ``tail_path``.

        The tokenizer located the end of the last tokenized field of each
        row; the tail is everything after the following delimiter.  We
        recompute tail starts from the recorded field texts, which keeps
        this function independent of tokenizer internals.
        """
        from repro.flatfile.dialects import newline_row_bounds  # shared row scan

        starts, ends = newline_row_bounds(text)
        starts = starts[home.skip_rows :]
        ends = ends[home.skip_rows :]
        # Tail begins after the last tokenized field + its delimiter.  The
        # tokenized fields of row i have known total length: sum of field
        # lengths + one delimiter each.
        lengths = np.zeros(len(starts), dtype=np.int64)
        for values in fields.values():
            lengths += np.fromiter(
                (len(v) + 1 for v in values), dtype=np.int64, count=len(values)
            )
        with open(tail_path, "w", encoding="utf-8", newline="") as f:
            for i in range(len(starts)):
                tail_start = int(starts[i] + lengths[i])
                f.write(text[tail_start : int(ends[i])])
                f.write("\n")

    # ---------------------------------------------------------- accounting

    def bytes_on_disk(self) -> int:
        """Total size of split files (the storage-doubling cost, 4.2.1)."""
        total = 0
        seen = set()
        for home in self.homes.values():
            if home.kind == "original":
                continue
            if home.file.path in seen:
                continue
            seen.add(home.file.path)
            if home.file.path.exists():
                total += home.file.path.stat().st_size
        return total

    def io_bytes_read(self) -> int:
        """Bytes read from split files (derived, not the original)."""
        total = 0
        seen = set()
        for home in self.homes.values():
            if home.kind == "original" or id(home.file) in seen:
                continue
            seen.add(id(home.file))
            total += home.file.stats.bytes_read
        return total

    def destroy(self) -> None:
        """Remove the directory and every split file in it (source edited,
        table detached or engine closed).  The owner then drops the
        catalog; the next ``splitfiles`` load starts a fresh one."""
        shutil.rmtree(self.directory, ignore_errors=True)


def _write_lines(path: Path, values) -> None:
    """Write one value per line; an ``S`` batch (ASCII bytes) as is."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "S":
        body = b"\n".join(values.tolist())
    else:
        body = "\n".join(values).encode("utf-8")
    with open(path, "wb") as f:
        f.write(body)
        if len(values):
            f.write(b"\n")

