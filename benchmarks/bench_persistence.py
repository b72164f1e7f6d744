"""Persistent adaptive store: cold vs restart-warm vs in-process warm.

The cache's whole value proposition is the restart: a fresh engine
pointed at a warm ``store_dir`` should answer its first query from the
persisted positional map and memmapped columns — a handful of small
binary reads — instead of re-paying the cold CSV scan.  This bench
measures the three warmth tiers on the same file and workload:

* **cold** — fresh engine, empty store: pays tokenize + parse + load,
  then persists off the query path;
* **restart-warm** — fresh engine, warm store: restores the entry and
  serves without touching the raw file;
* **in-process warm** — second query on a live engine: the in-memory
  adaptive store, the upper bound persistence is chasing.

Two invariants are enforced here, before the regression gate even runs
(a broken cache must not look like a slow one):

* restart-warm answers are byte-identical to cold answers;
* the restart-warm first query reads < 20% of the cold first query's
  raw-file bytes (it actually reads zero; the bound leaves room for a
  future policy that tops up partial state).

Script mode (what the CI ``bench-regression`` job runs)::

    PYTHONPATH=src python -m benchmarks.bench_persistence --quick --json out.json

Gated metrics: ``restart_warm_speedup`` (first cold query time over
first restart-warm query time; FATAL below 3x — the acceptance bar —
regardless of tolerance) and ``restart_bytes_saved_frac`` (fraction of
cold raw-file bytes the restart avoided).
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.harness import BenchReport, bench_arg_parser, dataset_rows
from benchmarks.workload import TableSpec, generate_columns
from repro import EngineConfig, NoDBEngine
from repro.flatfile.writer import write_csv

NCOLS = 6
FULL_ROWS = 400_000  # ~16 MB of plain CSV
QUICK_ROWS = 80_000
MIN_SPEEDUP = 3.0
MAX_BYTES_FRAC = 0.2

QUERIES = (
    "select sum(a1), avg(a2) from t where a1 > 100",
    "select min(a3), max(a4) from t where a2 < 900",
)


def _run(engine, path) -> tuple[list, float, int]:
    """Attach + run the workload; returns (answers, first-query seconds,
    first-query raw-file bytes)."""
    engine.attach("t", path)
    answers = []
    start = time.perf_counter()
    answers.append(engine.query(QUERIES[0]).rows())
    first_s = time.perf_counter() - start
    first_bytes = engine.stats.last().file_bytes_read
    for sql in QUERIES[1:]:
        answers.append(engine.query(sql).rows())
    return answers, first_s, first_bytes


def main(argv: list[str] | None = None) -> int:
    parser = bench_arg_parser(
        "Persistent store: cold vs restart-warm vs in-process warm serving."
    )
    args = parser.parse_args(argv)
    rows = dataset_rows(args, FULL_ROWS, QUICK_ROWS)
    columns = generate_columns(TableSpec(nrows=rows, ncols=NCOLS, seed=2011))

    tmp = Path(tempfile.mkdtemp(prefix="repro-persistence-"))
    try:
        path = write_csv(tmp / "r.csv", columns)
        store_dir = tmp / "store"
        config = dict(policy="column_loads", store_dir=store_dir)

        # cold: empty store; persist happens off the query path, so the
        # measured first query does not include serialization time.
        engine = NoDBEngine(EngineConfig(**config))
        cold_answers, cold_s, cold_bytes = _run(engine, path)
        engine.flush_persistent_store()
        persist_writes = engine.stats.counters.persist_writes
        engine.close()

        # restart-warm: a fresh engine on the warm store.
        engine = NoDBEngine(EngineConfig(**config))
        warm_answers, restart_s, restart_bytes = _run(engine, path)
        restart_hits = engine.stats.counters.restart_warm_hits

        # in-process warm: repeat the first query on the live engine.
        start = time.perf_counter()
        engine.query(QUERIES[0])
        inproc_s = time.perf_counter() - start
        engine.close()

        if warm_answers != cold_answers:
            print("FATAL: restart-warm answers differ from cold", file=sys.stderr)
            return 1
        if restart_hits < 1 or persist_writes < 1:
            print(
                f"FATAL: store never engaged (persist_writes={persist_writes}, "
                f"restart_warm_hits={restart_hits})",
                file=sys.stderr,
            )
            return 1
        bytes_frac = restart_bytes / cold_bytes if cold_bytes else 1.0
        if bytes_frac >= MAX_BYTES_FRAC:
            print(
                f"FATAL: restart-warm first query read {restart_bytes:,} raw "
                f"bytes = {bytes_frac:.0%} of cold ({cold_bytes:,}); "
                f"bound is {MAX_BYTES_FRAC:.0%}",
                file=sys.stderr,
            )
            return 1
        speedup = cold_s / restart_s
        if speedup < MIN_SPEEDUP:
            print(
                f"FATAL: restart-warm first query only {speedup:.2f}x faster "
                f"than cold ({restart_s * 1e3:.1f} ms vs {cold_s * 1e3:.1f} ms); "
                f"bar is {MIN_SPEEDUP}x",
                file=sys.stderr,
            )
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report = BenchReport(
        bench="persistence",
        metrics={
            "restart_warm_speedup": speedup,
            "restart_bytes_saved_frac": 1.0 - bytes_frac,
        },
        info={
            "rows": rows,
            "ncols": NCOLS,
            "cold_first_ms": round(cold_s * 1e3, 2),
            "restart_warm_first_ms": round(restart_s * 1e3, 2),
            "inprocess_warm_ms": round(inproc_s * 1e3, 2),
            "cold_first_bytes": cold_bytes,
            "restart_warm_first_bytes": restart_bytes,
            "persist_writes": persist_writes,
            "quick": args.quick,
        },
    )
    report.emit(args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
