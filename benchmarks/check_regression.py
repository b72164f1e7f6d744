"""Gate bench results against the committed baseline (CI `bench-regression`).

Reads ``BENCH_BASELINE.json`` plus one or more current bench JSON files
(produced by ``benchmarks/*.py --quick --json out.json``) and fails when
any gated metric regressed by more than the tolerance.  Every gated
metric is throughput-shaped — higher is better — so the rule is simply::

    current >= baseline * (1 - tolerance)

A bench or metric present in the baseline but missing from the current
results is a hard failure too: a silently-skipped bench must not look
like a pass.  Refresh the baseline after an intentional perf change with::

    PYTHONPATH=src python -m benchmarks.bench_selective_read --quick --json sel.json
    PYTHONPATH=src python -m benchmarks.bench_dialects --quick --json dia.json
    python benchmarks/check_regression.py --baseline BENCH_BASELINE.json \
        --update sel.json dia.json

Stdlib-only on purpose: the gate must run before (and regardless of)
the project's own dependencies.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 0.25


def load_current(paths: list[Path]) -> dict[str, dict]:
    """Index current bench payloads by bench name."""
    benches: dict[str, dict] = {}
    for path in paths:
        payload = json.loads(path.read_text())
        name = payload.get("bench")
        if not name:
            raise SystemExit(f"{path}: not a bench payload (no 'bench' key)")
        benches[name] = payload
    return benches


def compare(
    baseline: dict, current: dict[str, dict], tolerance: float
) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures: list[str] = []
    for bench, entry in sorted(baseline.get("benches", {}).items()):
        got = current.get(bench)
        if got is None:
            failures.append(f"{bench}: no current result for baselined bench")
            continue
        got_metrics = got.get("metrics", {})
        for metric, base_value in sorted(entry.get("metrics", {}).items()):
            if metric not in got_metrics:
                failures.append(f"{bench}.{metric}: missing from current result")
                continue
            value = got_metrics[metric]
            floor = base_value * (1 - tolerance)
            status = "ok" if value >= floor else "REGRESSED"
            print(
                f"  {bench}.{metric}: baseline {base_value:.4g}, "
                f"current {value:.4g}, floor {floor:.4g} -> {status}"
            )
            if value < floor:
                failures.append(
                    f"{bench}.{metric}: {value:.4g} < floor {floor:.4g} "
                    f"(baseline {base_value:.4g}, tolerance {tolerance:.0%})"
                )
    return failures


def write_baseline(path: Path, current: dict[str, dict], tolerance: float) -> None:
    baseline = {
        "tolerance": tolerance,
        "benches": {
            name: {"metrics": payload.get("metrics", {}), "env": payload.get("env", {})}
            for name, payload in sorted(current.items())
        },
    }
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"wrote baseline {path} from {len(current)} bench result(s)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "current", nargs="+", type=Path, help="bench JSON outputs to check"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_BASELINE.json",
        help="committed baseline file (default: repo-root BENCH_BASELINE.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional regression (default: baseline's, "
        f"else {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the current results instead of gating",
    )
    args = parser.parse_args(argv)

    current = load_current(args.current)
    if args.update:
        tolerance = args.tolerance
        if tolerance is None and args.baseline.exists():
            # preserve a hand-tuned tolerance across refreshes
            tolerance = json.loads(args.baseline.read_text()).get("tolerance")
        if tolerance is None:
            tolerance = DEFAULT_TOLERANCE
        write_baseline(args.baseline, current, tolerance)
        return 0

    if not args.baseline.exists():
        print(f"FATAL: baseline {args.baseline} not found", file=sys.stderr)
        return 1
    baseline = json.loads(args.baseline.read_text())
    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else baseline.get("tolerance", DEFAULT_TOLERANCE)
    )
    print(f"bench regression gate (tolerance {tolerance:.0%})")
    failures = compare(baseline, current, tolerance)
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
