"""Quickstart: here are my data files, here are my queries.

The complete NoDB loop in one minute, through the public API:

1. generate a raw CSV (stand-in for "my data files"),
2. ``repro.connect(...)`` it — *zero* loading happens,
3. fire SQL immediately,
4. watch the adaptive store fill in only what the queries needed.

Run:  python examples/quickstart.py
(set REPRO_EXAMPLE_ROWS to shrink the dataset, e.g. for CI smoke runs)
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

import repro

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "100000"))


def write_table(path: Path, nrows: int, ncols: int, seed: int) -> Path:
    """A headerless CSV whose columns a1..aN each permute 0..nrows-1."""
    rng = np.random.default_rng(seed)
    columns = [rng.permutation(nrows) for _ in range(ncols)]
    np.savetxt(path, np.column_stack(columns), fmt="%d", delimiter=",")
    return path


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-quickstart-"))
    csv_path = write_table(workdir / "data.csv", ROWS, ncols=4, seed=7)
    print(f"raw data file: {csv_path} ({csv_path.stat().st_size:,} bytes)")

    with repro.connect(csv_path, policy="column_loads") as conn:
        engine = conn.engine  # the adaptive machinery, for introspection
        print(f"attached as table 't'; bytes read so far: "
              f"{engine.catalog.get('t').file.stats.bytes_read}  (zero initialization)\n")

        queries = [
            "select count(*) from t",
            "select sum(a1), avg(a2) from t where a1 > 1000 and a1 < 30000",
            "select sum(a1), avg(a2) from t where a1 > 2000 and a1 < 25000",
            "select max(a4) from t where a3 < 500",
        ]
        for sql in queries:
            result = conn.execute(sql)
            q = conn.stats()["last_query"]
            source = "adaptive store" if q["served_from_store"] else "flat file"
            print(f"> {sql}")
            print(f"  {result.rows()[0]}")
            print(
                f"  [{q['elapsed_s'] * 1e3:7.1f} ms | answered from {source:>14} | "
                f"parsed {q['values_parsed']:>7} values | "
                f"loaded {q['rows_loaded']:>7} new cells]\n"
            )

        print("what the store holds now (only what queries touched):")
        print(engine.explain(queries[-1]))


if __name__ == "__main__":
    main()
