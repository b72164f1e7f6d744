"""The paper's motivating scenario: exploratory science over raw files.

A scientist receives a wide instrument dump (here: 12 'sensor channels',
100k observations by default) and wants answers *now* — no schema design, no load
step, no tuning, and tomorrow another terabyte arrives (section 1.2).

The session below mimics exploratory behaviour: a quick look at a couple
of channels, repeated zoom-ins on an interesting region, then a shift to
different channels.  Three configurations answer the same session:

* the classic DBMS (full load up front),
* the CSV external table (re-parse per query),
* adaptive partial loading with the table of contents (Partial Loads V2).

The per-query trace shows where each configuration pays its costs — the
paper's Figure 3/4 story, replayed as a user session.

Run:  python examples/scientific_exploration.py
(set REPRO_EXAMPLE_ROWS to shrink the dataset, e.g. for CI smoke runs)
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import EngineConfig, NoDBEngine

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "100000"))


def pct(p: int) -> int:
    """The channel value at ``p`` percent of the value range."""
    return ROWS * p // 100


SESSION = [
    # quick look: are channels 2/3 interesting at all?
    f"select count(*), min(a2), max(a2) from r where a2 > {pct(40)} and a2 < {pct(60)} "
    f"and a3 > {pct(10)} and a3 < {pct(90)}",
    # zoom in on the hot region (covered by the first query's load!)
    f"select avg(a2), avg(a3) from r where a2 > {pct(45)} and a2 < {pct(55)} "
    f"and a3 > {pct(20)} and a3 < {pct(80)}",
    # zoom further
    f"select count(*) from r where a2 > {pct(48)} and a2 < {pct(52)} "
    f"and a3 > {pct(30)} and a3 < {pct(70)}",
    # shift: yesterday's channels are boring, look at 11/12 instead
    f"select sum(a11), avg(a12) from r where a11 > {pct(10)} and a11 < {pct(42)} "
    f"and a12 > {pct(10)} and a12 < {pct(42)}",
]
# rerun after a coffee
SESSION.append(SESSION[-1])


def write_table(path: Path, nrows: int, ncols: int, seed: int) -> Path:
    """A headerless CSV whose columns a1..aN each permute 0..nrows-1."""
    rng = np.random.default_rng(seed)
    columns = [rng.permutation(nrows) for _ in range(ncols)]
    np.savetxt(path, np.column_stack(columns), fmt="%d", delimiter=",")
    return path


def run_session(label: str, engine: NoDBEngine, path: Path) -> None:
    engine.attach("r", path)
    print(f"--- {label} " + "-" * max(0, 60 - len(label)))
    total = 0.0
    for i, sql in enumerate(SESSION, 1):
        start = time.perf_counter()
        engine.query(sql)
        elapsed = time.perf_counter() - start
        total += elapsed
        q = engine.stats.last()
        source = "store" if q.served_from_store else "file "
        print(
            f"  q{i}: {elapsed * 1e3:8.1f} ms  [{source}]  "
            f"bytes read {q.file_bytes_read:>10,}"
        )
    store = engine.catalog.get("r").table
    resident = store.logical_nbytes if store else 0
    print(f"  session total: {total * 1e3:8.1f} ms; "
          f"adaptive store resident: {resident:,} bytes\n")
    engine.close()


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-explore-"))
    path = write_table(workdir / "instrument.csv", ROWS, ncols=12, seed=99)
    print(f"instrument dump: {path} ({path.stat().st_size:,} bytes)\n")

    run_session(
        "classic DBMS (full load on first query)",
        NoDBEngine(EngineConfig(policy="fullload")),
        path,
    )
    run_session(
        "external table / CSV engine (no loading, no memory)",
        NoDBEngine(EngineConfig(policy="external")),
        path,
    )
    run_session(
        "adaptive partial loading with table of contents (NoDB)",
        NoDBEngine(EngineConfig(policy="partial_v2")),
        path,
    )
    print(
        "Note how the adaptive engine pays only for touched channels, the\n"
        "zoom-ins and the rerun are served from the store, and the workload\n"
        "shift costs one incremental load — not a full reload."
    )


if __name__ == "__main__":
    main()
