"""File cracking in action: watch a flat file split itself (section 4).

A 12-column raw file is queried column-pair by column-pair under the
Split Files policy.  After every query the example prints the split-file
catalog — which columns now live in their own single files, which still
share a remainder — plus how many bytes each load had to read.  The last
load reads only the tiny per-column files, never the original again.

Also demonstrates section 4.2.1's storage-budget caveat: the split files
roughly double the bytes on disk, and editing the original file drops
them all (section 5.4).

Run:  python examples/file_cracking.py
(set REPRO_EXAMPLE_ROWS to shrink the dataset, e.g. for CI smoke runs)
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import EngineConfig, NoDBEngine

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "60000"))


def write_table(path: Path, nrows: int, ncols: int, seed: int) -> Path:
    """A headerless CSV whose columns a1..aN each permute 0..nrows-1."""
    rng = np.random.default_rng(seed)
    columns = [rng.permutation(nrows) for _ in range(ncols)]
    np.savetxt(path, np.column_stack(columns), fmt="%d", delimiter=",")
    return path


def describe_catalog(engine: NoDBEngine) -> str:
    split = engine.catalog.get("r").split_catalog
    if split is None:
        return "  (no split state yet)"
    homes = []
    for col in range(split.ncols):
        home = split.homes[col]
        tag = {"original": "O", "single": "S", "remainder": "R"}[home.kind]
        homes.append(tag)
    legend = "O=still in original, S=own single file, R=in a remainder"
    return f"  columns a1..a{split.ncols}: [{' '.join(homes)}]   ({legend})"


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-cracking-"))
    path = write_table(workdir / "big.csv", ROWS, ncols=12, seed=5)
    original_size = path.stat().st_size
    print(f"raw file: {path} ({original_size:,} bytes)\n")

    engine = NoDBEngine(EngineConfig(policy="splitfiles"))
    engine.attach("r", path)

    for sql in [
        "select sum(a5), avg(a6) from r where a5 > 100 and a5 < 20000",
        "select sum(a2) from r",
        "select sum(a9), max(a10) from r where a9 > 5000 and a9 < 30000",
        "select min(a11), max(a12) from r",
        "select sum(a5), sum(a9) from r where a5 > 200 and a5 < 10000",  # all cached
    ]:
        start = time.perf_counter()
        engine.query(sql)
        elapsed = time.perf_counter() - start
        q = engine.stats.last()
        print(f"> {sql}")
        print(
            f"  {elapsed * 1e3:8.1f} ms | bytes read {q.file_bytes_read:>10,} | "
            f"split files written: {q.split_files_written}"
        )
        print(describe_catalog(engine))
        split = engine.catalog.get("r").split_catalog
        if split:
            print(f"  split storage on disk: {split.bytes_on_disk():,} bytes "
                  f"(original: {original_size:,})\n")

    print("editing the original file -> all split state is dropped:")
    time.sleep(0.02)
    text = path.read_text()
    path.write_text(text)  # rewrite = new mtime = stale fingerprint
    engine.query("select count(*) from r")
    print(describe_catalog(engine))
    engine.close()


if __name__ == "__main__":
    main()
