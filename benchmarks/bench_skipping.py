"""Learned skipping: zone-map selectivity sweep + cracking warm path.

Two halves, matching the two layers of the skipping stack:

* **Zone maps** (``partial_v1`` + selective reads): after a teaching
  pass learns the positional map and zone statistics, a ~1%-selectivity
  range query on the clustered key column must read a small fraction of
  the bytes — and run in a fraction of the time — of the identical
  engine with ``zone_maps=False``.  Low-selectivity warm work trends
  toward O(result), not O(file).
* **Cracking** (``column_loads`` warm path): with the column resident,
  repeated range scans answered through the cracker index must beat the
  full-column mask route.

Hard-fails (exit 1) rather than reporting pretty-but-wrong numbers when
the machinery silently stops engaging: zone-map skips and cracks must
both be visible in the engine's own counters, answers must match between
the on/off configurations, and the low-selectivity query must read less
than 10% of the bytes the no-zone-maps route reads.

Script mode (what the CI ``bench-regression`` job runs)::

    PYTHONPATH=src python -m benchmarks.bench_skipping --quick --json out.json

Gated metrics: ``zone_bytes_saved_frac`` (fraction of warm-query file
bytes zone maps avoid), ``zone_speedup`` and ``crack_speedup`` (warm
latency ratios, skipping off / on).
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
REPEATS = 5
ZONE_ROWS = 1024
#: ~1% selectivity on the clustered key column.
SELECTIVITY = 0.01


def _write_clustered(path: Path, nrows: int) -> Path:
    """Key column sorted (zone min/max really exclude), payloads mixed."""
    with open(path, "w") as f:
        for i in range(nrows):
            f.write(f"{i},{i % 97},{(i * 7) % 1003},{i * 0.25:.2f}\n")
    return path


def _range_query(nrows: int) -> str:
    lo = int(nrows * 0.5)
    hi = lo + max(int(nrows * SELECTIVITY), 1)
    return f"select sum(a2), max(a3) from r where a1 > {lo} and a1 < {hi}"


def _best_warm(engine, query: str, repeats: int) -> tuple[float, int]:
    """(best latency, bytes read by the last run) of a repeated query."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        engine.query(query)
        best = min(best, time.perf_counter() - start)
    return best, engine.stats.last().file_bytes_read


def _zone_half(path: Path, nrows: int, repeats: int, query: str):
    """Warm selective-read latency/bytes with and without zone maps."""
    out = {}
    for zone_maps in (True, False):
        cfg = EngineConfig(
            policy="partial_v1",
            zone_maps=zone_maps,
            zone_map_rows=ZONE_ROWS,
            cracking=False,
            result_cache=False,
        )
        with NoDBEngine(cfg) as engine:
            engine.attach("r", path)
            # Teaching pass: learns the positional map (and, when
            # enabled, zone statistics) as side effects of one full parse.
            engine.query("select sum(a1), sum(a2), sum(a3) from r")
            best, nbytes = _best_warm(engine, query, repeats)
            answer = engine.query(query).rows()
            skips = engine.stats.snapshot()["counters"]["zone_map_skips"]
            out[zone_maps] = (best, nbytes, repr(answer), skips)
    return out


def _crack_half(path: Path, repeats: int, query: str):
    """Warm range-scan latency through the cracker vs full-column masks."""
    out = {}
    for cracking in (True, False):
        cfg = EngineConfig(
            policy="column_loads",
            cracking=cracking,
            crack_after=1,
            zone_maps=False,
            result_cache=False,
        )
        with NoDBEngine(cfg) as engine:
            engine.attach("r", path)
            engine.query(query)  # cold load of the three columns
            engine.query(query)  # first warm serve (builds the cracker)
            best, _ = _best_warm(engine, query, repeats)
            answer = engine.query(query).rows()
            cracks = engine.stats.snapshot()["counters"]["cracks"]
            out[cracking] = (best, repr(answer), cracks)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = bench_arg_parser(
        "Learned skipping: zone maps on selective reads, cracking warm path."
    )
    args = parser.parse_args(argv)
    rows = dataset_rows(args, FULL_ROWS, QUICK_ROWS)
    query = _range_query(rows)

    with tempfile.TemporaryDirectory(prefix="repro-skipping-") as tmp:
        path = _write_clustered(Path(tmp) / "r.csv", rows)
        file_bytes = path.stat().st_size

        zones = _zone_half(path, rows, REPEATS, query)
        (zt, zbytes, zanswer, zskips) = zones[True]
        (nt, nbytes, nanswer, _) = zones[False]
        if zanswer != nanswer:
            print("FATAL: zone-map answers differ from the unskipped route",
                  file=sys.stderr)
            return 1
        if zskips <= 0:
            print("FATAL: zone maps never skipped a zone", file=sys.stderr)
            return 1
        if zbytes > 0.10 * max(nbytes, 1):
            print(
                f"FATAL: low-selectivity warm query read {zbytes} bytes with "
                f"zone maps vs {nbytes} without (>10%): skipping stopped "
                "engaging",
                file=sys.stderr,
            )
            return 1

        cracked = _crack_half(path, REPEATS, query)
        (ct, canswer, cracks) = cracked[True]
        (mt, manswer, _) = cracked[False]
        if canswer != manswer:
            print("FATAL: cracked answers differ from the mask route",
                  file=sys.stderr)
            return 1
        if cracks <= 0:
            print("FATAL: the warm path never cracked a column", file=sys.stderr)
            return 1

    report = BenchReport(
        bench="skipping",
        metrics={
            "zone_bytes_saved_frac": 1.0 - zbytes / max(nbytes, 1),
            "zone_speedup": nt / zt,
            "crack_speedup": mt / ct,
        },
        info={
            "rows": rows,
            "ncols": NCOLS,
            "selectivity": SELECTIVITY,
            "repeats": REPEATS,
            "file_mb": round(file_bytes / 2**20, 1),
            "zone_rows": ZONE_ROWS,
            "warm_bytes_with_zones": zbytes,
            "warm_bytes_without_zones": nbytes,
            "zone_skips": zskips,
            "cracks": cracks,
            "zone_warm_ms": round(zt * 1e3, 2),
            "nozone_warm_ms": round(nt * 1e3, 2),
            "crack_warm_ms": round(ct * 1e3, 2),
            "mask_warm_ms": round(mt * 1e3, 2),
            "quick": args.quick,
        },
    )
    report.emit(args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
