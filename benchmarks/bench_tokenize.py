"""Bulk-tokenization kernel throughput on cold scans.

The innermost loop of every cold first pass is tokenization.  This bench
measures it in isolation — same raw bytes, same needed columns, same
positional-map learning — through :func:`repro.flatfile.tokenizer.
tokenize_bytes`, which runs the NumPy byte-scan kernel
(:mod:`repro.flatfile.vectorized`) on plain CSV, TSV and fixed-width.

Script mode (what the CI ``bench-regression`` job runs)::

    PYTHONPATH=src python -m benchmarks.bench_tokenize --quick --json out.json

Gated metric: ``csv_cold_mb_s`` (the kernel's cold plain-CSV
tokenization throughput).  TSV and fixed-width throughputs are info.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from benchmarks.harness import BenchReport, bench_arg_parser, dataset_rows, iterations
from benchmarks.workload import TableSpec, generate_columns
from repro.flatfile.dialects import (
    DelimitedAdapter,
    FixedWidthAdapter,
    TsvAdapter,
)
from repro.flatfile.positions import PositionalMap
from repro.flatfile.tokenizer import tokenize_bytes
from repro.flatfile.writer import write_csv

NCOLS = 8
#: The cold-scan shape the paper's workloads take: a query touching a
#: couple of attributes out of a wide row.
NEEDED = [0, 1]
FULL_ROWS = 1_200_000  # ~55 MB of plain CSV
QUICK_ROWS = 150_000  # ~7 MB
REPEATS = 3


def _tokenize_once(data: bytes, adapter) -> float:
    pmap = PositionalMap()
    start = time.perf_counter()
    tokenize_bytes(data, adapter, ncols=NCOLS, needed=NEEDED, positional_map=pmap)
    return time.perf_counter() - start


def _best_mb_s(data: bytes, adapter, repeats: int) -> float:
    best = min(_tokenize_once(data, adapter) for _ in range(repeats))
    return (len(data) / 2**20) / best


def main(argv: list[str] | None = None) -> int:
    parser = bench_arg_parser(
        "Cold tokenization throughput of the bulk kernel."
    )
    args = parser.parse_args(argv)
    rows = dataset_rows(args, FULL_ROWS, QUICK_ROWS)
    repeats = iterations(args, REPEATS)
    columns = generate_columns(TableSpec(nrows=rows, ncols=NCOLS, seed=61))

    with tempfile.TemporaryDirectory(prefix="repro-tokenize-") as tmp:
        root = Path(tmp)
        csv_adapter = DelimitedAdapter(",")
        csv_data = write_csv(root / "r.csv", columns, adapter=csv_adapter).read_bytes()
        csv_mb_s = _best_mb_s(csv_data, csv_adapter, repeats)

        tsv_adapter = TsvAdapter()
        tsv_data = write_csv(root / "r.tsv", columns, adapter=tsv_adapter).read_bytes()
        tsv_mb_s = _best_mb_s(tsv_data, tsv_adapter, repeats)

        width = max(
            len(str(int(v))) for col in columns for v in (col.min(), col.max())
        ) + 1
        fw_adapter = FixedWidthAdapter(tuple([width] * NCOLS))
        fw_data = write_csv(root / "r.fw", columns, adapter=fw_adapter).read_bytes()
        fw_mb_s = _best_mb_s(fw_data, fw_adapter, repeats)

    report = BenchReport(
        bench="tokenize",
        metrics={"csv_cold_mb_s": csv_mb_s},
        info={
            "rows": rows,
            "ncols": NCOLS,
            "needed": NEEDED,
            "repeats": repeats,
            "file_mb": round(len(csv_data) / 2**20, 1),
            "tsv_cold_mb_s": round(tsv_mb_s, 1),
            "fixed_width_cold_mb_s": round(fw_mb_s, 1),
            "quick": args.quick,
        },
    )
    report.emit(args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
