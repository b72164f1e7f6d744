"""Ablation A5 — exploratory zoom workloads and the table of contents.

Section 3.1.2 motivates partial loading with the exploring scientist who
"walks through the data space, periodically zooming in and out".  This
bench runs nested zoom-in sequences (each query's ranges strictly inside
the previous query's) and measures how each policy's state helps:

* Partial Loads V2's value-range certificates cover every zoom-in — zero
  file trips after the first query of each region;
* Column Loads also answers from the store (it loaded whole columns), but
  paid a larger first query;
* Partial Loads V1 re-reads the file for every single zoom step.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import FIG3_ROWS, fresh_engine
from benchmarks.harness import run_sequence
from benchmarks.workload import exploration_sequence


@pytest.mark.benchmark(group="ablation-exploration")
def test_zoom_workload(benchmark, fig3_file):
    sqls = [
        q.sql
        for q in exploration_sequence(FIG3_ROWS, depth=5, regions=3, seed=71)
    ]
    series = {}
    for policy in ("partial_v2", "column_loads", "partial_v1"):
        engine = fresh_engine(policy, fig3_file)
        series[policy] = run_sequence(policy, engine, sqls)
        engine.close()

    print(f"\nAblation A5: exploratory zoom workload ({len(sqls)} queries, "
          "3 regions x 5 zoom levels)")
    print(f"{'policy':>14}  {'total ms':>9}  {'store hits':>10}  {'file bytes':>12}")
    for policy, s in series.items():
        hits = sum(s.from_store)
        print(
            f"{policy:>14}  {s.total_s * 1e3:>9.1f}  {hits:>10}  "
            f"{sum(s.bytes_read):>12,}"
        )

    v2, column, v1 = series["partial_v2"], series["column_loads"], series["partial_v1"]
    # V2 covers every zoom-in: only the first query per region hits the file.
    assert sum(v2.from_store) == len(sqls) - 3
    # V1 never improves.
    assert sum(v1.from_store) == 0
    # The stateless policy reads an order of magnitude more raw bytes.
    assert sum(v1.bytes_read) > 4 * sum(v2.bytes_read)
    # And costs several times more wall clock over the session (factor
    # kept below the typical ~3x measurement to absorb machine jitter).
    assert v1.total_s > 2.2 * v2.total_s

    benchmark.pedantic(
        lambda: run_sequence(
            "bench", fresh_engine("partial_v2", fig3_file), sqls[:5]
        ),
        rounds=1,
        iterations=1,
    )
