"""Ablation A6 — the selective-read fast path (positional map as I/O index).

The positional map's end game (paper section 4.1.5): once the byte range of
every needed field is known, a repeat query should not re-read the flat
file — only the bytes the answer needs.  Workload: on a wide table under
``partial_v1`` (which goes back to the file on *every* query), run the same
single-column range query repeatedly.  With selective reads the repeat
queries fetch a sliver of the file through coalesced window reads and a
vectorized gather; without, every repeat is a full scan and re-tokenize.

Script mode (what the CI ``bench-regression`` job runs)::

    PYTHONPATH=src python -m benchmarks.bench_selective_read --quick --json out.json
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import pytest

from benchmarks.conftest import fresh_engine
from benchmarks.harness import BenchReport, bench_arg_parser, dataset_rows
from benchmarks.workload import TableSpec, materialize_csv

QUERY = "select sum(a3), count(*) from r where a3 > 50 and a3 < 900000"
FULL_REPEATS = 5
SCRIPT_REPEATS = 15  # script mode: more repeats, steadier warm-path timing
NCOLS = 12
FULL_ROWS = 20_000
QUICK_ROWS = 12_000


def _repeat_cost(
    fig4_file, selective: bool, repeats: int = FULL_REPEATS
) -> tuple[float, int, float]:
    engine = fresh_engine(
        "partial_v1", fig4_file, selective_reads=selective
    )
    first = engine.query(QUERY)  # cold: full scan, teaches the map
    start = time.perf_counter()
    for _ in range(repeats):
        result = engine.query(QUERY)
    elapsed = (time.perf_counter() - start) / repeats
    repeat_bytes = engine.stats.last().file_bytes_read
    assert result.approx_equal(first)
    engine.close()
    return elapsed, repeat_bytes, fig4_file.stat().st_size


@pytest.mark.benchmark(group="selective-read")
def test_selective_read_repeat_queries(benchmark, fig4_file):
    with_time, with_bytes, size = _repeat_cost(fig4_file, True)
    without_time, without_bytes, _ = _repeat_cost(fig4_file, False)

    print("\nAblation A6: selective reads (repeat 1-column query, partial_v1)")
    print(f"{'variant':>14}  {'seconds':>9}  {'bytes read':>12}  {'of file':>8}")
    print(f"{'selective':>14}  {with_time:>9.4f}  {with_bytes:>12}  {with_bytes / size:>7.1%}")
    print(f"{'full scan':>14}  {without_time:>9.4f}  {without_bytes:>12}  {without_bytes / size:>7.1%}")
    print(f"speedup: {without_time / with_time:.2f}x, "
          f"bytes saved: {1 - with_bytes / without_bytes:.0%}")

    # The whole point: a warm repeat query touches strictly less file.
    assert with_bytes < size
    assert without_bytes == size
    assert with_time < without_time

    benchmark.pedantic(
        lambda: _repeat_cost(fig4_file, True), rounds=1, iterations=1
    )


def main(argv: list[str] | None = None) -> int:
    args = bench_arg_parser(
        "Warm repeat-query cost with and without selective reads."
    ).parse_args(argv)
    rows = dataset_rows(args, FULL_ROWS, QUICK_ROWS)
    # Warm repeats cost milliseconds but steady the gated speedup metric,
    # so --quick shrinks the dataset, never the repeat count.
    repeats = args.repeats if args.repeats is not None else SCRIPT_REPEATS

    with tempfile.TemporaryDirectory(prefix="repro-selread-") as tmp:
        path = materialize_csv(
            TableSpec(nrows=rows, ncols=NCOLS, seed=29), Path(tmp) / "r.csv"
        )
        with_time, with_bytes, size = _repeat_cost(path, True, repeats)
        without_time, without_bytes, _ = _repeat_cost(path, False, repeats)

    report = BenchReport(
        bench="selective_read",
        metrics={
            "speedup": without_time / with_time,
            "bytes_saved_frac": 1 - with_bytes / without_bytes,
        },
        info={
            "rows": rows,
            "repeats": repeats,
            "file_mb": round(size / 2**20, 2),
            "repeat_bytes": with_bytes,
            "quick": args.quick,
        },
    )
    report.emit(args.json)

    if not (with_bytes < size and without_bytes == size):
        print("FATAL: selective repeat did not save bytes", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
