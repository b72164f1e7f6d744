"""Ablation A2 — predicate pushdown, a tokenizer trick of section 3.2.

"Abandon the tokenization of a row as soon as a predicate fails":
partial loads with and without pushdown, on the Figure 3 dataset.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import FIG3_ROWS, fresh_engine
from benchmarks.workload import make_q2

import numpy as np


def _first_query(fig3_file, policy: str, **config) -> tuple[float, int]:
    engine = fresh_engine(policy, fig3_file, **config)
    q = make_q2(FIG3_ROWS, "a1", "a2", rng=np.random.default_rng(7)).sql
    start = time.perf_counter()
    engine.query(q)
    elapsed = time.perf_counter() - start
    parsed = engine.stats.last().parse.values_parsed
    engine.close()
    return elapsed, parsed


@pytest.mark.benchmark(group="ablation-tokenizer")
def test_predicate_pushdown_ablation(benchmark, fig3_file):
    push, parsed_push = _first_query(fig3_file, "partial_v1", predicate_pushdown=True)
    nopush, parsed_nopush = _first_query(
        fig3_file, "partial_v1", predicate_pushdown=False
    )
    print("\nAblation A2: predicate pushdown into loading (10% selective Q2)")
    print(f"  with pushdown:    {push:.4f}s  parsed={parsed_push}")
    print(f"  without pushdown: {nopush:.4f}s  parsed={parsed_nopush}")
    # Pushdown parses a1 everywhere but a2 only where a1 qualified
    # (~sqrt(10%) of rows), plus the qualifying materialization.
    assert parsed_push < 0.85 * parsed_nopush
    benchmark.pedantic(
        lambda: _first_query(fig3_file, "partial_v1"), rounds=1, iterations=1
    )
