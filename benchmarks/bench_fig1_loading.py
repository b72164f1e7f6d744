"""Figure 1a — Loading/Initialization costs vs input size.

Paper setting: a 4-attribute unique-int table at 10^5..10^9 rows; the DBMS
pays a full load (tokenize + parse + write its internal format) before any
query, while Awk pays nothing.  The paper's curve additionally shows the
memory wall: at 1B rows the loader starts writing to disk and the cost
stops scaling gracefully.

Reproduced here at scaled sizes: the "DB" series is a full load timed
through the persistent store's write of the loaded state (its internal
format); the "DB (disk-bound)" series adds the time a 20 MB/s disk would
take for the bytes the store wrote, recreating the knee; "Awk" is
identically zero by construction (printed for completeness).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import FIG1_SIZES, fresh_engine


def _load_seconds(path, tmp_path, write_bw: float | None) -> float:
    engine = fresh_engine(
        "fullload", path, store_dir=tmp_path / f"store-{time.monotonic_ns()}"
    )
    start = time.perf_counter()
    engine.query("select count(*) from r")  # triggers the complete load
    engine.flush_persistent_store()  # ... and the write of the loaded state
    elapsed = time.perf_counter() - start
    if write_bw:
        elapsed += engine.stats.store.bytes_written / write_bw
    engine.close()
    return elapsed


@pytest.mark.benchmark(group="fig1a-loading")
def test_fig1a_loading_costs(benchmark, fig1_files, tmp_path):
    rows = []
    for n in FIG1_SIZES:
        plain = _load_seconds(fig1_files[n], tmp_path, write_bw=None)
        # Simulated slow disk: 20 MB/s writes — the 1B-tuple memory wall.
        bound = _load_seconds(fig1_files[n], tmp_path, write_bw=20e6)
        rows.append((n, plain, bound))

    print("\nFigure 1a: loading/initialization cost (seconds)")
    print(f"{'rows':>10}  {'Awk':>8}  {'DB load':>10}  {'DB (disk-bound)':>16}")
    for n, plain, bound in rows:
        print(f"{n:>10}  {0.0:>8.3f}  {plain:>10.3f}  {bound:>16.3f}")

    # Shape assertions: load cost grows with input size; Awk pays nothing.
    times = [t for _, t, _ in rows]
    assert times == sorted(times), "load cost must grow with input size"
    assert times[-1] / times[0] > 4, "load cost must scale steeply with rows"
    disk_bound = [b for _, _, b in rows]
    assert all(b >= t for (_, t, _), b in zip(rows, disk_bound))

    # pytest-benchmark datum: the full load at the largest size.
    benchmark.pedantic(
        lambda: _load_seconds(fig1_files[FIG1_SIZES[-1]], tmp_path, None),
        rounds=1,
        iterations=1,
    )
