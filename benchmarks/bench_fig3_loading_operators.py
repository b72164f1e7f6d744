"""Figure 3 — Alternative loading operators over a 20-query sequence.

Paper setting: 10^8-row, 4-attribute table; Q2 queries at 10% selectivity;
queries 1-10 touch (a1, a2), queries 11-20 touch (a3, a4).  Series:

* **MonetDB** — full load attached to query 1, then flat and fast;
* **MySQL CSV** — flat and slow: the whole file is re-analyzed per query;
* **Column Loads** — half of MonetDB's spike at query 1, a second smaller
  spike at query 11 (the workload shift), MonetDB-fast elsewhere;
* **Partial Loads V1** — flat, cheaper than the CSV engine (pushdown +
  early abandonment), but no improvement over time.

Shape assertions encode exactly those relationships.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import FIG3_ROWS, fresh_engine
from benchmarks.harness import print_series_table, run_sequence
from benchmarks.workload import figure3_sequence

POLICIES = [
    ("MonetDB", "fullload"),
    ("MySQL CSV", "external"),
    ("Column Loads", "column_loads"),
    ("Partial Loads V1", "partial_v1"),
]


@pytest.mark.benchmark(group="fig3")
def test_fig3_alternative_loading_operators(benchmark, fig3_file):
    sqls = [q.sql for q in figure3_sequence(FIG3_ROWS, seed=101)]
    series = []
    for label, policy in POLICIES:
        engine = fresh_engine(policy, fig3_file)
        series.append(run_sequence(label, engine, sqls))
        engine.close()
    monet, csv, column, partial = series

    print_series_table(
        f"Figure 3: alternative loading operators ({FIG3_ROWS} rows x 4 cols, "
        "queries 1-10 on a1/a2, 11-20 on a3/a4)",
        series,
    )

    # --- Shape assertions -------------------------------------------------
    # MonetDB: everything on query 1, then flat.
    assert monet.times_s[0] > 10 * max(monet.times_s[1:])
    # The CSV engine is flat: no query much cheaper than the mean.
    csv_mean = np.mean(csv.times_s)
    assert min(csv.times_s) > 0.5 * csv_mean
    assert max(csv.times_s) < 2.0 * csv_mean
    # Column loads: first query roughly half of the full load (2/4 columns).
    assert column.times_s[0] < 0.8 * monet.times_s[0]
    assert column.times_s[0] > 0.25 * monet.times_s[0]
    # Second spike at query 11, the workload shift.
    steady = sorted(column.times_s[1:10])[:5]
    assert column.times_s[10] > 10 * np.mean(steady)
    # In between, column loads matches MonetDB steady state (store-served).
    assert all(column.from_store[1:10])
    # Partial V1 is flat and cheaper than the CSV engine per query.
    assert np.mean(partial.times_s) < 0.8 * csv_mean
    assert not any(partial.from_store)
    # Total file work: MonetDB and Column Loads read comparable bytes, the
    # stateless engines read an order of magnitude more.
    assert sum(csv.bytes_read) > 5 * sum(column.bytes_read)

    benchmark.pedantic(
        lambda: run_sequence(
            "bench", fresh_engine("column_loads", fig3_file), sqls[:3]
        ),
        rounds=1,
        iterations=1,
    )
