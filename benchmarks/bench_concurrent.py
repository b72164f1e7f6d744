"""Concurrent query serving — aggregate throughput vs. the global lock.

The serving tentpole replaced the paper section 5.4 "simple solution"
(one engine-wide lock) with per-table reader–writer locks, shared-scan
batching and an optional result cache.  This bench quantifies the claim
that justifies the complexity: a gang of threads querying **disjoint**
tables must achieve well over the single-lock aggregate throughput,
because their cold loads — dominated by raw-file I/O — now overlap
instead of queueing.

Raw-file reads use the engine's simulated-bandwidth throttle so the
bench models the disk-bound regime the paper's figures live in (and so
the measured ratio reflects lock scheduling, not the Python VM's
ability to parse CSV on N cores at once).  The ``--concurrency`` knob
sets the gang size, serve-style.

Script mode (what the CI ``bench-regression`` job runs)::

    PYTHONPATH=src python -m benchmarks.bench_concurrent --quick --json out.json

Gated metric: ``speedup_disjoint`` — aggregate queries/second of the
per-table-locked engine over the ``global_lock=True`` baseline, 4
threads over 4 disjoint tables.  The committed baseline floor encodes
the >= 1.5x acceptance bar.
"""

from __future__ import annotations

import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from benchmarks.harness import BenchReport, bench_arg_parser, dataset_rows
from benchmarks.workload import TableSpec, materialize_csv
from repro import EngineConfig, NoDBEngine

CONCURRENCY = 4
FULL_ROWS = 120_000  # per table
QUICK_ROWS = 12_000
#: Simulated raw-file read bandwidth: low enough that cold loads are
#: genuinely disk-bound (sleeps release the GIL, so overlap is real).
BANDWIDTH = 2 * 2**20  # 2 MB/s
#: Queries per thread per run (first is the cold load, the rest warm).
QUERIES_PER_THREAD = 3


def _gang_run(
    paths: list[Path],
    nthreads: int,
    global_lock: bool,
    result_cache: bool = False,
) -> tuple[float, int, list]:
    """One cold engine, ``nthreads`` threads each owning one table.

    Returns (wall seconds, queries run, answers) — answers are compared
    across variants to keep the bench honest.
    """
    engine = NoDBEngine(
        EngineConfig(
            policy="column_loads",
            global_lock=global_lock,
            result_cache=result_cache,
            io_bandwidth_bytes_per_sec=BANDWIDTH,
        )
    )
    try:
        for i, path in enumerate(paths):
            engine.attach(f"t{i}", path)
        barrier = threading.Barrier(nthreads)

        def worker(i: int):
            table = f"t{i % len(paths)}"
            barrier.wait()
            answers = []
            for _ in range(QUERIES_PER_THREAD):
                r = engine.query(f"select sum(a1), avg(a2) from {table}")
                answers.append(r.rows())
            return answers

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            answers = list(pool.map(worker, range(nthreads)))
        elapsed = time.perf_counter() - start
        return elapsed, nthreads * QUERIES_PER_THREAD, answers
    finally:
        engine.close()


def main(argv: list[str] | None = None) -> int:
    parser = bench_arg_parser(
        "Aggregate throughput of concurrent serving vs. the global lock."
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=CONCURRENCY,
        metavar="N",
        help=f"gang size / disjoint table count (default: {CONCURRENCY})",
    )
    args = parser.parse_args(argv)
    rows = dataset_rows(args, FULL_ROWS, QUICK_ROWS)
    nthreads = max(2, args.concurrency)

    with tempfile.TemporaryDirectory(prefix="repro-conc-") as tmp:
        paths = [
            materialize_csv(
                TableSpec(nrows=rows, ncols=4, seed=600 + i),
                Path(tmp) / f"t{i}.csv",
            )
            for i in range(nthreads)
        ]

        global_s, nq, global_answers = _gang_run(paths, nthreads, global_lock=True)
        concurrent_s, _, concurrent_answers = _gang_run(
            paths, nthreads, global_lock=False
        )
        if concurrent_answers != global_answers:
            print("FATAL: concurrent answers differ from global-lock", file=sys.stderr)
            return 1

        # Result-cache hit rate on repeats, reported (not gated: absolute
        # hit latency is machine noise at this scale).
        cached_s, _, cached_answers = _gang_run(
            paths, nthreads, global_lock=False, result_cache=True
        )
        if cached_answers != global_answers:
            print("FATAL: cached answers differ from global-lock", file=sys.stderr)
            return 1

    speedup = global_s / concurrent_s
    report = BenchReport(
        bench="concurrent",
        metrics={
            "speedup_disjoint": speedup,
            "concurrent_qps": nq / concurrent_s,
        },
        info={
            "rows_per_table": rows,
            "tables": nthreads,
            "threads": nthreads,
            "queries": nq,
            "global_lock_qps": round(nq / global_s, 2),
            "result_cache_qps": round(nq / cached_s, 2),
            "quick": args.quick,
        },
    )
    report.emit(args.json)

    if not args.quick and speedup < 1.5:
        print(
            f"FATAL: concurrent speedup {speedup:.2f}x at {nthreads} threads "
            "over disjoint tables is below the 1.5x acceptance floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
