"""Incremental append maintenance: growing a warm table must cost O(tail).

The growing-log scenario: a table is served warm (positional map and
zone maps learned), then ~1% more rows land at the end
of the file.  With append extension the next query must absorb just the
tail — re-tokenize the appended bytes, extend the learned structures in
place — instead of wiping the store and re-parsing the whole file.

Hard-fails (exit 1) rather than reporting pretty-but-wrong numbers when
the machinery silently stops engaging: the stale fingerprint must be
recognized as an append (``append_extensions`` counter), the post-append
query must read no more than 10% of the cold-scan bytes, and its answer
must equal both the independently computed truth and a from-scratch
engine on the grown file.

Script mode (what the CI ``bench-regression`` job runs)::

    PYTHONPATH=src python -m benchmarks.bench_append --quick --json out.json

Gated metrics: ``append_bytes_saved_frac`` (fraction of the cold-scan
bytes the post-append query avoids) and ``append_speedup`` (cold scan
time / post-append absorb time).
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from benchmarks.harness import BenchReport, bench_arg_parser, dataset_rows
from repro.config import EngineConfig
from repro.core.engine import NoDBEngine

NCOLS = 4
FULL_ROWS = 400_000
QUICK_ROWS = 100_000
#: Appended tail, as a fraction of the base row count.
APPEND_FRAC = 0.01
QUERY = "select count(*), sum(a1), sum(a2), min(a3), max(a4) from g"


def _row(i: int) -> str:
    return f"{i},{i % 97},{(i * 7) % 1003},{i * 0.25:.2f}\n"


def _write_rows(path: Path, rng, mode: str = "w") -> None:
    with open(path, mode) as f:
        for i in rng:
            f.write(_row(i))


def _truth(nrows: int) -> tuple:
    return (
        nrows,
        sum(range(nrows)),
        sum(i % 97 for i in range(nrows)),
        0,
        round(max(i * 0.25 for i in range(nrows)), 2),
    )


def _normalize(rows) -> tuple:
    (row,) = rows
    return tuple(round(v, 2) if isinstance(v, float) else int(v) for v in row)


def main(argv: list[str] | None = None) -> int:
    parser = bench_arg_parser(
        "Append 1% to a warm table; the next query must absorb the tail."
    )
    args = parser.parse_args(argv)
    rows = dataset_rows(args, FULL_ROWS, QUICK_ROWS)
    tail_rows = max(int(rows * APPEND_FRAC), 1)

    with tempfile.TemporaryDirectory(prefix="repro-append-") as tmp:
        path = Path(tmp) / "g.csv"
        _write_rows(path, range(rows))
        cold_bytes_on_disk = path.stat().st_size

        with NoDBEngine(EngineConfig(policy="column_loads")) as engine:
            engine.attach("g", path)
            start = time.perf_counter()
            engine.query(QUERY)  # cold scan: parses the whole file
            cold_s = time.perf_counter() - start
            cold_bytes = engine.stats.last().file_bytes_read

            _write_rows(path, range(rows, rows + tail_rows), mode="a")
            grown_bytes_on_disk = path.stat().st_size

            start = time.perf_counter()
            answer = _normalize(engine.query(QUERY).rows())
            absorb_s = time.perf_counter() - start
            absorb_bytes = engine.stats.last().file_bytes_read
            extensions = engine.stats.counters.append_extensions
            invalidations = engine.stats.counters.store_invalidations

            start = time.perf_counter()
            engine.query(QUERY)  # fully warm again
            warm_s = time.perf_counter() - start

        if extensions < 1 or invalidations > 0:
            print(
                f"FATAL: the append was not absorbed in place "
                f"(append_extensions={extensions}, "
                f"store_invalidations={invalidations})",
                file=sys.stderr,
            )
            return 1
        if absorb_bytes > 0.10 * max(cold_bytes, 1):
            print(
                f"FATAL: post-append query read {absorb_bytes} bytes vs "
                f"{cold_bytes} cold (>10%): the tail was not absorbed "
                "incrementally",
                file=sys.stderr,
            )
            return 1
        want = _truth(rows + tail_rows)
        if answer != want:
            print(
                f"FATAL: post-append answer {answer!r} != truth {want!r}",
                file=sys.stderr,
            )
            return 1
        with NoDBEngine(EngineConfig(policy="column_loads")) as fresh:
            fresh.attach("g", path)
            scratch = _normalize(fresh.query(QUERY).rows())
        if answer != scratch:
            print(
                f"FATAL: post-append answer {answer!r} != from-scratch "
                f"engine {scratch!r}",
                file=sys.stderr,
            )
            return 1

    report = BenchReport(
        bench="append",
        metrics={
            "append_bytes_saved_frac": 1.0 - absorb_bytes / max(cold_bytes, 1),
            "append_speedup": cold_s / absorb_s,
        },
        info={
            "rows": rows,
            "tail_rows": tail_rows,
            "ncols": NCOLS,
            "file_mb": round(grown_bytes_on_disk / 2**20, 1),
            "tail_bytes": grown_bytes_on_disk - cold_bytes_on_disk,
            "cold_bytes": cold_bytes,
            "absorb_bytes": absorb_bytes,
            "cold_ms": round(cold_s * 1e3, 2),
            "absorb_ms": round(absorb_s * 1e3, 2),
            "warm_ms": round(warm_s * 1e3, 2),
            "append_extensions": extensions,
            "quick": args.quick,
        },
    )
    report.emit(args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
