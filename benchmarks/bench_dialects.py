"""Dialect-adapter overheads: cold scans and warm repeats per format.

The format-adapter layer must not tax the paper's original fast path:
plain CSV still takes the ``str.find`` tokenizer, and the other dialects
pay only their intrinsic decode cost (quote state machine, backslash
unescape, ``json.loads``, fixed-width slicing).  This bench renders the
same logical table in every dialect, runs the same cold aggregation
query through a fresh engine per dialect, verifies all answers agree,
and reports per-dialect cold throughput plus the plain-CSV warm repeat
(the positional-map selective path the regression gate already guards
from another angle).

Script mode (what the CI ``bench-regression`` job runs)::

    PYTHONPATH=src python -m benchmarks.bench_dialects --quick --json out.json

Gated metrics are throughput-shaped (MB/s of the *rendered* file, higher
is better).  Only plain CSV and the cheap structural dialects are gated;
the JSON decode cost is reported as info (it is dominated by
``json.loads``, whose speed is the interpreter's business, not ours).
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from benchmarks.harness import BenchReport, bench_arg_parser, dataset_rows
from benchmarks.workload import TableSpec, generate_columns
from repro import EngineConfig, NoDBEngine
from repro.flatfile.dialects import (
    DelimitedAdapter,
    FixedWidthAdapter,
    JsonLinesAdapter,
    QuotedCsvAdapter,
    TsvAdapter,
)
from repro.flatfile.writer import write_csv

QUERY = "select sum(a1), avg(a2) from r where a1 > 100"
NCOLS = 4
FULL_ROWS = 400_000
QUICK_ROWS = 60_000


def _render_all(columns, root: Path) -> dict[str, tuple[Path, dict]]:
    texts_max = max(
        len(str(int(v))) for col in columns for v in (col.min(), col.max())
    )
    widths = tuple([texts_max + 1] * len(columns))
    out: dict[str, tuple[Path, dict]] = {}
    out["csv"] = (
        write_csv(root / "r.csv", columns, adapter=DelimitedAdapter(",")),
        {},
    )
    out["quoted_csv"] = (
        write_csv(root / "r.qcsv", columns, adapter=QuotedCsvAdapter(",")),
        {"format": "quoted-csv"},
    )
    out["tsv"] = (
        write_csv(root / "r.tsv", columns, adapter=TsvAdapter()),
        {"format": "tsv"},
    )
    out["jsonl"] = (
        write_csv(root / "r.jsonl", columns, adapter=JsonLinesAdapter()),
        {"format": "jsonl"},
    )
    out["fixed_width"] = (
        write_csv(root / "r.fw", columns, adapter=FixedWidthAdapter(widths)),
        {"format": "fixed-width", "fixed_widths": widths},
    )
    return out


def _timed_queries(path: Path, attach_kwargs: dict) -> tuple[float, float, list]:
    """(cold_seconds, warm_seconds, rows) for one fresh engine."""
    engine = NoDBEngine(EngineConfig(policy="column_loads"))
    try:
        engine.attach("r", path, **attach_kwargs)
        start = time.perf_counter()
        rows = engine.query(QUERY).rows()
        cold = time.perf_counter() - start
        start = time.perf_counter()
        engine.query(QUERY)
        warm = time.perf_counter() - start
        return cold, warm, rows
    finally:
        engine.close()


def main(argv: list[str] | None = None) -> int:
    parser = bench_arg_parser(
        "Cold-scan and warm-repeat throughput of every format dialect."
    )
    args = parser.parse_args(argv)
    rows = dataset_rows(args, FULL_ROWS, QUICK_ROWS)
    columns = generate_columns(TableSpec(nrows=rows, ncols=NCOLS, seed=53))

    with tempfile.TemporaryDirectory(prefix="repro-dialects-") as tmp:
        rendered = _render_all(columns, Path(tmp))
        cold_mb_s: dict[str, float] = {}
        warm_s: dict[str, float] = {}
        answers = {}
        for name, (path, kwargs) in rendered.items():
            size_mb = path.stat().st_size / 2**20
            cold, warm, got = _timed_queries(path, kwargs)
            cold_mb_s[name] = size_mb / cold
            warm_s[name] = warm
            answers[name] = got
        baseline = answers["csv"]
        for name, got in answers.items():
            if got != baseline:
                print(
                    f"FATAL: dialect {name} answered {got!r}, csv answered "
                    f"{baseline!r}",
                    file=sys.stderr,
                )
                return 1

    report = BenchReport(
        bench="dialects",
        metrics={
            # gated: the original fast path and the cheap structural dialects
            "csv_cold_mb_s": cold_mb_s["csv"],
            "tsv_cold_mb_s": cold_mb_s["tsv"],
            "fixed_width_cold_mb_s": cold_mb_s["fixed_width"],
            "quoted_csv_cold_mb_s": cold_mb_s["quoted_csv"],
        },
        info={
            "rows": rows,
            "quick": args.quick,
            "jsonl_cold_mb_s": round(cold_mb_s["jsonl"], 2),
            **{f"{k}_warm_ms": round(v * 1e3, 2) for k, v in warm_s.items()},
        },
    )
    report.emit(args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
