"""Partitioned parallel cold scans — first-pass latency vs. worker count.

The adaptive-loading promise is that query latency amortizes parsing, but
the *first* pass over a file is irreducible tokenize-and-parse work, and
serially it scales linearly with file size.  This bench measures that
cold-start cost with and without the partitioned parallel scan: the same
cold aggregation query over the same generated file, once with
``parallel_workers=1`` (the serial route) and once with ``parallel_workers
= 4`` (row-range partitions framed on threads), verifying the answers
are identical before reporting throughput.

Two regimes are measured:

* **CPU-bound** (page-cached file, no throttle): ``serial_mb_s`` and
  ``parallel_mb_s``, the raw tokenize-and-parse rates.  Their ratio is
  reported as ``cpu_speedup`` but only *gated* on machines with enough
  cores — partition threads cannot beat the clock on one core, and CI
  runner classes vary.
* **Disk-bound** (simulated-bandwidth throttle, the regime a genuinely
  cold scan lives in): the gated ``speedup`` metric.  Each partition
  thread pays its own share of the simulated disk time, so partitioned
  reads overlap the way N readers streaming N byte ranges do on real
  hardware — this is deterministic across runner classes, which is
  what a committed baseline needs.

Script mode (what the CI ``bench-regression`` job runs)::

    PYTHONPATH=src python -m benchmarks.bench_parallel_scan --quick --json out.json

Full mode (no ``--quick``) sizes the file at >= 100 MB and, on machines
with at least 4 CPUs, additionally *requires* a >= 2x CPU-bound
cold-parse speedup at 4 workers — the paper-scale claim this subsystem
exists for.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

import pytest

from benchmarks.conftest import fresh_engine, scaled
from benchmarks.harness import BenchReport, bench_arg_parser, dataset_rows
from benchmarks.workload import TableSpec, materialize_csv

QUERY = "select sum(a1), avg(a2) from r where a1 > 100"
NCOLS = 8
WORKERS = 4
FULL_ROWS = 2_400_000  # ~110 MB at ~47 bytes/row
QUICK_ROWS = 150_000  # ~7 MB
SPEEDUP_FLOOR = 2.0


def _cold_query(
    path: Path,
    workers: int,
    partition_min_bytes: int = 1 << 20,
    bandwidth: float | None = None,
):
    """Time one cold first-pass query; return (seconds, partitions, rows).

    ``bandwidth`` switches on the simulated-disk throttle (bytes/second)
    for the disk-bound regime.
    """
    engine = fresh_engine(
        "column_loads",
        path,
        parallel_workers=workers,
        partition_min_bytes=partition_min_bytes,
        io_bandwidth_bytes_per_sec=bandwidth,
    )
    start = time.perf_counter()
    result = engine.query(QUERY)
    elapsed = time.perf_counter() - start
    partitions = engine.stats.last().parallel_partitions
    rows = result.rows()
    engine.close()
    return elapsed, partitions, rows


@pytest.fixture(scope="session")
def parallel_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("parallel")
    return materialize_csv(
        TableSpec(nrows=scaled(120_000), ncols=NCOLS, seed=41), root / "r.csv"
    )


@pytest.mark.benchmark(group="parallel-scan")
def test_parallel_scan_cold_load(benchmark, parallel_file):
    serial_s, serial_parts, serial_rows = _cold_query(parallel_file, 1)
    parallel_s, parts, rows = _cold_query(
        parallel_file, WORKERS, partition_min_bytes=64 * 1024
    )
    size = parallel_file.stat().st_size

    print("\nParallel partitioned cold scan")
    print(f"{'variant':>10}  {'seconds':>9}  {'partitions':>10}")
    print(f"{'serial':>10}  {serial_s:>9.4f}  {serial_parts:>10}")
    print(f"{'parallel':>10}  {parallel_s:>9.4f}  {parts:>10}")
    print(f"file: {size:,} bytes, speedup {serial_s / parallel_s:.2f}x")

    # The whole point: same answer, genuinely partitioned.
    assert rows == serial_rows
    assert serial_parts == 0
    assert parts >= 2

    benchmark.pedantic(
        lambda: _cold_query(parallel_file, WORKERS, 64 * 1024),
        rounds=1,
        iterations=1,
    )


def main(argv: list[str] | None = None) -> int:
    parser = bench_arg_parser(
        "Cold first-pass scan throughput, serial vs. partitioned parallel."
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=WORKERS,
        help=f"parallel worker count (default: {WORKERS})",
    )
    args = parser.parse_args(argv)
    rows = dataset_rows(args, FULL_ROWS, QUICK_ROWS)

    with tempfile.TemporaryDirectory(prefix="repro-parscan-") as tmp:
        path = materialize_csv(
            TableSpec(nrows=rows, ncols=NCOLS, seed=41), Path(tmp) / "r.csv"
        )
        size = path.stat().st_size
        size_mb = size / 2**20
        serial_s, _, serial_rows = _cold_query(path, 1)
        parallel_s, parts, par_rows = _cold_query(path, args.workers)
        if par_rows != serial_rows:
            print("FATAL: parallel result differs from serial", file=sys.stderr)
            return 1
        # Disk-bound regime: simulated disk sized so transfer time
        # dominates the (now vectorized) parse time.  Partition threads
        # overlap their shares of it; the serial scan pays it in full.
        bandwidth = size / max(serial_s, 1e-9) / 2.0
        disk_serial_s, _, _ = _cold_query(path, 1, bandwidth=bandwidth)
        disk_parallel_s, _, disk_rows = _cold_query(
            path, args.workers, bandwidth=bandwidth
        )
        if disk_rows != serial_rows:
            print("FATAL: disk-bound result differs from serial", file=sys.stderr)
            return 1

    cpu_speedup = serial_s / parallel_s
    speedup = disk_serial_s / disk_parallel_s
    report = BenchReport(
        bench="parallel_scan",
        metrics={
            "serial_mb_s": size_mb / serial_s,
            "parallel_mb_s": size_mb / parallel_s,
            "speedup": speedup,
        },
        info={
            "rows": rows,
            "file_mb": round(size_mb, 1),
            "workers": args.workers,
            "partitions": parts,
            "cpu_speedup": round(cpu_speedup, 2),
            "disk_bandwidth_mb_s": round(bandwidth / 2**20, 1),
            "disk_serial_s": round(disk_serial_s, 4),
            "disk_parallel_s": round(disk_parallel_s, 4),
            "quick": args.quick,
        },
    )
    report.emit(args.json)

    if parts < 2:
        print("FATAL: parallel run did not partition the file", file=sys.stderr)
        return 1
    if speedup < 1.0:
        print(
            f"FATAL: disk-bound partitioned scan speedup {speedup:.2f}x at "
            f"{args.workers} workers is below 1.0x — partitioning lost to "
            "its own overhead",
            file=sys.stderr,
        )
        return 1
    enforce = not args.quick and (os.cpu_count() or 1) >= args.workers
    if enforce and cpu_speedup < SPEEDUP_FLOOR:
        print(
            f"FATAL: CPU-bound cold-parse speedup {cpu_speedup:.2f}x at "
            f"{args.workers} workers is below the {SPEEDUP_FLOOR:.1f}x floor "
            f"({size_mb:.0f} MB file, {os.cpu_count()} CPUs)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
