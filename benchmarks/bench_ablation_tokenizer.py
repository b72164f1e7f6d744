"""Ablation A2 — the tokenizer tricks of section 3.2.

Two independent toggles, measured on the Figure 3 dataset:

* **early abort** — "once all required columns are found the tokenization
  for this row can stop": tokenize-everything vs stop-at-last-needed, on
  a query touching the first two of four columns;
* **predicate pushdown** — "abandon the tokenization of a row as soon as
  a predicate fails": partial loads with and without pushdown.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import FIG3_ROWS, fresh_engine
from benchmarks.workload import make_q2

import numpy as np


def _first_query(fig3_file, policy: str, **config) -> tuple[float, int, int]:
    engine = fresh_engine(policy, fig3_file, **config)
    q = make_q2(FIG3_ROWS, "a1", "a2", rng=np.random.default_rng(7)).sql
    start = time.perf_counter()
    engine.query(q)
    elapsed = time.perf_counter() - start
    stats = engine.stats.last()
    fields = stats.tokenizer.fields_tokenized
    parsed = stats.parse.values_parsed
    engine.close()
    return elapsed, fields, parsed


@pytest.mark.benchmark(group="ablation-tokenizer")
def test_early_abort_ablation(benchmark, fig3_file):
    fast, fields_fast, _ = _first_query(
        fig3_file, "column_loads", tokenizer_early_abort=True
    )
    slow, fields_slow, _ = _first_query(
        fig3_file, "column_loads", tokenizer_early_abort=False
    )
    print("\nAblation A2a: early row abort (load a1,a2 of a 4-column file)")
    print(f"  with abort:    {fast:.4f}s  fields={fields_fast}")
    print(f"  without abort: {slow:.4f}s  fields={fields_slow}")
    # Needed columns are the first two of four: stopping after a2 halves
    # the tokenization work.
    assert fields_fast <= 0.6 * fields_slow
    benchmark.pedantic(
        lambda: _first_query(fig3_file, "column_loads"), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="ablation-tokenizer")
def test_predicate_pushdown_ablation(benchmark, fig3_file):
    push, _, parsed_push = _first_query(
        fig3_file, "partial_v1", predicate_pushdown=True
    )
    nopush, _, parsed_nopush = _first_query(
        fig3_file, "partial_v1", predicate_pushdown=False
    )
    print("\nAblation A2b: predicate pushdown into loading (10% selective Q2)")
    print(f"  with pushdown:    {push:.4f}s  parsed={parsed_push}")
    print(f"  without pushdown: {nopush:.4f}s  parsed={parsed_nopush}")
    # Pushdown parses a1 everywhere but a2 only where a1 qualified
    # (~sqrt(10%) of rows), plus the qualifying materialization.
    assert parsed_push < 0.85 * parsed_nopush
    benchmark.pedantic(
        lambda: _first_query(fig3_file, "partial_v1"), rounds=1, iterations=1
    )
