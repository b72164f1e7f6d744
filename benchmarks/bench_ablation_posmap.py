"""Ablation A1 — the positional map (paper section 4.1.5, "Learning").

Not plotted in the paper, but called out as the learning mechanism over
flat files (and noted in the reproduction brief as rarely implemented).
Workload: on a wide table, first load one column (the framing pass
teaches the map every column's spans), then load the *last* columns.
With the map, the second load reads just those columns' bytes instead of
re-reading and re-framing the whole file.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import FIG4_ROWS, fresh_engine

WARMUP = "select sum(a10) from r"
TARGET = "select sum(a11), avg(a12) from r where a11 > 5 and a11 < 100"


def _second_load(fig4_file, use_map: bool, repeats: int = 5) -> tuple[float, int]:
    """Best-of-``repeats`` seconds of the second load, and its file bytes."""
    times = []
    for _ in range(repeats):
        engine = fresh_engine("column_loads", fig4_file, use_positional_map=use_map)
        engine.query(WARMUP)
        start = time.perf_counter()
        engine.query(TARGET)
        times.append(time.perf_counter() - start)
        nbytes = engine.stats.last().file_bytes_read
        engine.close()
    return min(times), nbytes


@pytest.mark.benchmark(group="ablation-posmap")
def test_positional_map_ablation(benchmark, fig4_file):
    with_map, bytes_with = _second_load(fig4_file, True)
    without_map, bytes_without = _second_load(fig4_file, False)

    print("\nAblation A1: positional map (load a11,a12 after learning the frame)")
    print(f"{'variant':>14}  {'seconds':>9}  {'file bytes read':>17}")
    print(f"{'with map':>14}  {with_map:>9.4f}  {bytes_with:>17}")
    print(f"{'without map':>14}  {without_map:>9.4f}  {bytes_without:>17}")
    print(f"speedup: {without_map / with_map:.2f}x, "
          f"bytes saved: {1 - bytes_with / bytes_without:.0%}")

    # The map lets the load read 2 of 12 columns' bytes: the blind load
    # re-reads the whole file, the assisted one ~1/6 of it (plus padding).
    assert bytes_with < 0.5 * bytes_without
    assert with_map < without_map

    benchmark.pedantic(
        lambda: _second_load(fig4_file, True, repeats=1), rounds=1, iterations=1
    )
