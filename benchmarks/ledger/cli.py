"""The ledger's command line: run workloads, check answers, print metrics.

Per workload it prints a plain-text table (``workload  metric  unit
median  q1  q3  n  p95  p99``) and then one JSON line with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — the line
``BENCHMARK.json``'s driver reads.  The whole document (env block,
every table row, traced per-layer numbers, A/A verdicts) goes to
``<out>/ledger.json``.

The untraced path never imports ``trace.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from benchmarks.ledger import ROOT
from benchmarks.ledger.workloads import WORKLOADS, Context, Samples, Workload, now

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 11
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
SMOKE_SCALE = 50
SMOKE_SECONDS = 0.6
UNIT_SCALE = {"s": 1.0, "ms": 1e3, "rows/s": 1.0}


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def spread(values: list[float]) -> dict:
    """Median, quartiles, count and the tail percentiles the count supports."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    if len(values) >= 20:
        out["p95"] = float(np.percentile(values, 95))
    if len(values) >= 1000:  # ten samples lie beyond it
        out["p99"] = float(np.percentile(values, 99))
    return out


def run_workload(
    cls: type[Workload], ctx: Context, seconds: float, traced: bool, setups: int, out: Path
) -> dict:
    """One run of one workload: generate, set up ``setups`` times, measure.

    A traced run splits its time in two: an untraced reference part and a
    traced part, each from its own fresh set-up, so that the overhead
    compares like with like.
    """
    workload = cls(ctx)
    start = now()
    workload.generate()
    datagen_s = now() - start

    parts = ["untraced", "traced"] if traced else ["untraced"]
    setups = max(setups, len(parts))
    schedule = [None] * (setups - len(parts)) + parts
    setup_times, samples, tracer, state = [], {}, None, None
    for part in schedule:
        start = now()
        state = workload.setup(traced=part == "traced")
        setup_times.append(now() - start)
        try:
            if part is None:
                continue
            samples[part] = Samples()
            if part == "traced":
                from benchmarks.ledger import trace

                tracer = trace.Tracer()
                tracer.install()
            try:
                workload.measure(state, seconds / len(parts), samples[part])
            finally:
                if tracer is not None:
                    tracer.uninstall()
        finally:
            workload.teardown(state)

    measured = samples["untraced"]
    report = {
        "workload": cls.name,
        "seed": ctx.seed,
        "seconds": seconds,
        "datagen_s": datagen_s,
        "ops_attempted": sum(s.attempted for s in samples.values()),
        "ops_failed": sum(s.failed for s in samples.values()),
        "end_to_end": {
            "primary_p50_ms": statistics.median(measured.series[cls.primary]) * 1e3,
            "secondary_p50_ms": statistics.median(measured.series[cls.secondary]) * 1e3,
            "ops_per_s": measured.attempted * cls.clients / measured.busy_s,
            "setup_s": statistics.median(setup_times),
        },
        "rows": {"setup_s": {"unit": "s", **spread(setup_times)}},
        "counters": dict(measured.counters),
    }
    for name, (series, unit) in cls.named.items():
        scaled = [v * UNIT_SCALE[unit] for v in measured.series[series]]
        report["rows"][name] = {"unit": unit, **spread(scaled)}
    if tracer is not None:
        report["per_layer"] = _per_layer(cls, tracer, state, samples, out)
    return report


def _per_layer(cls, tracer, state, samples: dict[str, Samples], out: Path) -> dict:
    from benchmarks.ledger import trace

    spans = tracer.spans
    server_file = getattr(state, "spans", None)
    if server_file is not None:
        clients = [f"c{i}" for i in range(cls.clients)]
        spans = trace.join_server(spans, trace.read_spans(server_file), clients)
    spans = trace.with_ops(spans)
    trace.write_spans(out / f"trace_{cls.name}.jsonl", spans)
    traced = samples["traced"]
    traced.counters["rows_out"] = traced.rows_out
    overhead = (
        statistics.median(traced.series[cls.primary])
        / statistics.median(samples["untraced"].series[cls.primary])
        - 1.0
    )
    return trace.layer_metrics(
        spans, traced.attempted, traced.counters, traced.gauges, overhead
    )


# ------------------------------------------------------------------ printing


def print_report(report: dict, layer_units: dict[str, str]) -> None:
    name = report["workload"]

    def row(metric, unit, median, q1="", q3="", n="", p95="", p99=""):
        cells = [name, metric, unit] + [
            f"{c:.6g}" if isinstance(c, float) else str(c)
            for c in (median, q1, q3, n, p95, p99)
        ]
        print("  ".join(cells))

    for metric, stats in report["rows"].items():
        row(
            metric,
            stats["unit"],
            stats["median"],
            *(stats.get(k, "") for k in ("q1", "q3", "n", "p95", "p99")),
        )
    for metric in ("primary_p50_ms", "secondary_p50_ms", "ops_per_s"):
        unit = "1/s" if metric == "ops_per_s" else "ms"
        row(metric, unit, report["end_to_end"][metric])
    row("datagen_s", "s", report["datagen_s"])
    row("ops_attempted", "count", report["ops_attempted"])
    row("ops_failed", "count", report["ops_failed"])
    for metric, value in report.get("per_layer", {}).items():
        row(metric, layer_units[metric], float(value))
    sys.stdout.flush()


def contract_line(report: dict, spec: dict) -> str:
    """The last line of a run, in the form ``BENCHMARK.json``'s driver reads."""
    if "per_layer" in report:
        values, listed = report["per_layer"], spec["per_layer"]
    else:
        values, listed = report["end_to_end"], spec["end_to_end"]
    return json.dumps(
        {
            "correct": report["ops_failed"] == 0,
            "attempted": report["ops_attempted"],
            "failed": report["ops_failed"],
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
            },
        }
    )


def compare(first: list[dict], second: list[dict], spec: dict) -> list[dict]:
    """A/A verdicts: is the second run's value within the metric's bound?"""
    verdicts = []
    for a, b in zip(first, second):
        for metric in spec["end_to_end"]:
            x, y = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            worse = (y - x) / x if metric["better"] == "lower" else (x - y) / x
            verdicts.append(
                {
                    "workload": a["workload"],
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "first": x,
                    "second": y,
                    "worse_by": worse,
                    "bound": metric["bound"],
                    "pass": worse <= metric["bound"],
                }
            )
    return verdicts


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------- main


def build_parser(spec: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="Run the ledger's workloads, check every answer, print every metric.",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--workload",
        action="append",
        choices=list(WORKLOADS),
        help="run only this workload (repeatable; default: all five)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help=f"measuring time per run (default {spec['run_seconds']}, the contract's)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        choices=(0, 1),
        const=1,
        default=0,
        help="traced run: half the time untraced for reference, half with spans; "
        "prints the per-layer metrics",
    )
    parser.add_argument("--out", type=Path, default=HERE / "out", metavar="DIR")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"1/{SMOKE_SCALE} of the rows, {SMOKE_SECONDS} s per workload, one set-up",
    )
    parser.add_argument(
        "--aa",
        action="store_true",
        help="run the untraced set twice and judge the second against the bounds",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    spec = contract()
    args = build_parser(spec).parse_args(argv)
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else spec["run_seconds"])
    names = args.workload or list(WORKLOADS)
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    args.out.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work_", dir=args.out))
    # Everything the program writes to "the temp dir" (the server's
    # result files) lands inside the work directory too.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    ctx = Context(args.seed, work, SMOKE_SCALE if args.smoke else 1)
    setups = 1 if args.smoke else SETUPS

    def run_set(traced: bool) -> list[dict]:
        reports = []
        for name in names:
            report = run_workload(WORKLOADS[name], ctx, seconds, traced, setups, args.out)
            print_report(report, layer_units)
            print(contract_line(report, spec), flush=True)
            reports.append(report)
        return reports

    document = {"env": environment(), "seed": args.seed, "seconds": seconds}
    try:
        if args.aa:
            first, second = run_set(False), run_set(False)
            document["runs"] = first + second
            document["aa"] = compare(first, second, spec)
            for v in document["aa"]:
                print(
                    f"A/A  {v['workload']}  {v['metric']}  {v['unit']}  "
                    f"{v['first']:.6g}  {v['second']:.6g}  worse by {v['worse_by']:+.2%}  "
                    f"bound {v['bound']:.0%}  {'pass' if v['pass'] else 'FAIL'}"
                )
            if args.trace:
                document["runs"] += run_set(True)
        else:
            document["runs"] = run_set(bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(args.out / "ledger.json", "w", encoding="utf-8") as f:
        json.dump(document, f, indent=1)

    failed = sum(r["ops_failed"] for r in document["runs"])
    aa_failed = any(not v["pass"] for v in document.get("aa", []))
    return 1 if failed or aa_failed else 0
