"""Timing harness for query sequences, paper-style tables, and the bench CLI.

The paper's figures plot *per-query* response time over a query sequence
(not a steady-state mean), so the central helper here is
:func:`run_sequence`: run a list of SQL strings against a fresh engine and
record each query's wall-clock time plus the engine's own work counters.
``pytest-benchmark`` wraps whole sequences in the bench files; within a
sequence this harness provides the per-query resolution the figures need.

The middle of this module is the shared command-line contract of the
scripts under ``benchmarks/``: every script builds its parser with
:func:`bench_arg_parser` (so ``--quick``, ``--json``, ``--rows`` and
``--repeats`` mean the same thing everywhere, instead of each script
hardcoding iteration counts), sizes itself with :func:`iterations` /
:func:`dataset_rows`, and reports through :class:`BenchReport`, whose
JSON payload is what the CI ``bench-regression`` job diffs against the
committed ``BENCH_BASELINE.json``.  The end renders per-query series as
the paper-style tables the figure benches print.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

#: ``--quick`` divides a bench's full iteration count by this much.
QUICK_DIVISOR = 5


@dataclass
class Series:
    """One curve of a figure: a label and per-query measurements."""

    label: str
    times_s: list[float] = field(default_factory=list)
    bytes_read: list[int] = field(default_factory=list)
    values_parsed: list[int] = field(default_factory=list)
    from_store: list[bool] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(self.times_s)

    @property
    def first_query_s(self) -> float:
        return self.times_s[0] if self.times_s else float("nan")

    def steady_state_s(self, skip: int = 1) -> float:
        """Mean time of queries after the first ``skip`` (warm behaviour)."""
        tail = self.times_s[skip:]
        return sum(tail) / len(tail) if tail else float("nan")


def run_sequence(label: str, engine, sqls: Sequence[str]) -> Series:
    """Run ``sqls`` in order on ``engine``; record per-query measurements.

    ``engine`` needs ``query(sql)``; if it also exposes ``stats`` (the
    library's engines do), per-query byte/parse counters are captured too.
    """
    series = Series(label)
    for sql in sqls:
        start = time.perf_counter()
        engine.query(sql)
        series.times_s.append(time.perf_counter() - start)
        stats = getattr(engine, "stats", None)
        if stats is not None and stats.queries:
            q = stats.queries[-1]
            series.bytes_read.append(q.file_bytes_read)
            series.values_parsed.append(q.parse.values_parsed)
            series.from_store.append(q.served_from_store)
        else:
            series.bytes_read.append(0)
            series.values_parsed.append(0)
            series.from_store.append(False)
    return series


def time_callable(fn: Callable[[], object]) -> float:
    """Wall-clock one call (used for load-cost style measurements)."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# the shared bench-script CLI
# ---------------------------------------------------------------------------


def bench_arg_parser(description: str) -> argparse.ArgumentParser:
    """The argument parser every ``benchmarks/*.py`` script shares.

    ``--quick`` shrinks datasets and iteration counts to CI scale,
    ``--json PATH`` emits the machine-readable result the regression gate
    consumes, and ``--rows`` / ``--repeats`` override the script's
    defaults explicitly (they win over ``--quick``).
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: small dataset, few iterations",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write machine-readable results to PATH",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=None,
        metavar="N",
        help="override the dataset row count",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="override the iteration count",
    )
    return parser


def iterations(args: argparse.Namespace, full: int) -> int:
    """Effective iteration count: ``--repeats`` > ``--quick`` > full."""
    if args.repeats is not None:
        return max(1, args.repeats)
    if args.quick:
        return max(1, full // QUICK_DIVISOR)
    return full


def dataset_rows(args: argparse.Namespace, full: int, quick: int) -> int:
    """Effective dataset rows: ``--rows`` > ``--quick`` > full."""
    if args.rows is not None:
        return max(1, args.rows)
    return quick if args.quick else full


@dataclass
class BenchReport:
    """One bench script's result, printable and JSON-serializable.

    ``metrics`` holds the numbers the regression gate compares (all of
    them throughput-shaped: higher is better).  ``info`` holds context
    that is reported but never gated (sizes, iteration counts, flags).
    """

    bench: str
    metrics: dict[str, float]
    info: dict[str, object] = field(default_factory=dict)

    def payload(self) -> dict:
        return {
            "bench": self.bench,
            "metrics": self.metrics,
            "info": dict(self.info),
            "env": {
                "cpu_count": os.cpu_count() or 1,
                "python": platform.python_version(),
            },
        }

    def emit(self, json_path: Path | None, stream=None) -> None:
        """Print a human summary; write the JSON payload when asked."""
        stream = stream if stream is not None else sys.stdout
        print(f"[{self.bench}]", file=stream)
        for key, value in self.metrics.items():
            print(f"  {key:>24} = {value:.4g}", file=stream)
        for key, value in self.info.items():
            print(f"  {key:>24} : {value}", file=stream)
        if json_path is not None:
            json_path.write_text(json.dumps(self.payload(), indent=2) + "\n")
            print(f"  wrote {json_path}", file=stream)


# ---------------------------------------------------------------------------
# paper-style series tables
# ---------------------------------------------------------------------------
#
# The benches print the same rows/series the paper's figures plot, aligned
# for terminal reading and optionally as Markdown.  Times are printed in
# milliseconds: the reproduction's datasets are scaled down, so absolute
# magnitudes are not comparable to the paper's seconds — shapes and ratios
# are what the tables are for.


def format_series_table(
    title: str,
    series: Sequence[Series],
    x_label: str = "query",
    markdown: bool = False,
) -> str:
    """Render per-query times of several series side by side."""
    if not series:
        return f"{title}\n(no data)"
    npoints = max(len(s.times_s) for s in series)
    header = [x_label] + [s.label for s in series]
    rows = []
    for i in range(npoints):
        row = [str(i + 1)]
        for s in series:
            if i < len(s.times_s):
                mark = "*" if i < len(s.from_store) and s.from_store[i] else ""
                row.append(f"{s.times_s[i] * 1e3:.2f}{mark}")
            else:
                row.append("-")
        rows.append(row)
    totals = ["total"] + [f"{s.total_s * 1e3:.2f}" for s in series]
    rows.append(totals)
    if markdown:
        lines = [f"### {title}", ""]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join("---" for _ in header) + "|")
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
        lines.append("(*) served from the adaptive store; times in ms")
        return "\n".join(lines)
    widths = [
        max(len(header[c]), max(len(r[c]) for r in rows)) for c in range(len(header))
    ]
    out = [title, ""]
    out.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    out.append("(*) served from the adaptive store; times in ms")
    return "\n".join(out)


def print_series_table(
    title: str, series: Sequence[Series], x_label: str = "query"
) -> None:
    print()
    print(format_series_table(title, series, x_label=x_label))


def format_ratio_line(name: str, numerator: float, denominator: float) -> str:
    """One-line ratio summary, NaN-safe."""
    if denominator <= 0:
        return f"{name}: n/a"
    return f"{name}: {numerator / denominator:.2f}x"
