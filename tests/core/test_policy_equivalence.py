"""The repository's master invariant (DESIGN.md section 5.1):

    Every loading policy returns identical query results to FullLoad
    (and to the Awk baseline) for the same SQL.

Hypothesis drives randomized conjunctive-range workloads over a shared
dataset; every policy and the scripting baseline must agree on every query
of every sequence, including the stateful interactions (certificate reuse,
split files, eviction) that build up across a sequence.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.awk import AwkEngine
from repro import EngineConfig, NoDBEngine, POLICIES

NROWS = 500  # matches the session-scoped small_csv fixture


@st.composite
def range_queries(draw):
    """One Q1/Q2-shaped query with random columns, bounds and aggregates."""
    cols = draw(
        st.lists(st.sampled_from(["a1", "a2", "a3", "a4"]), min_size=1, max_size=3, unique=True)
    )
    conjuncts = []
    for col in cols:
        lo = draw(st.integers(-10, NROWS))
        width = draw(st.integers(0, NROWS))
        op_lo = draw(st.sampled_from([">", ">="]))
        op_hi = draw(st.sampled_from(["<", "<="]))
        conjuncts.append(f"{col} {op_lo} {lo} and {col} {op_hi} {lo + width}")
    agg_col = draw(st.sampled_from(cols))
    aggs = draw(
        st.lists(
            st.sampled_from(
                [f"sum({agg_col})", f"min({agg_col})", f"max({agg_col})",
                 f"avg({agg_col})", "count(*)"]
            ),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    return f"select {', '.join(aggs)} from r where {' and '.join(conjuncts)}"


class TestPolicyEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(sqls=st.lists(range_queries(), min_size=1, max_size=5))
    def test_all_policies_agree_on_sequences(self, sqls, small_csv):
        reference = None
        for policy in POLICIES:
            engine = NoDBEngine(EngineConfig(policy=policy))
            engine.attach("r", small_csv)
            try:
                results = [engine.query(sql) for sql in sqls]
            finally:
                engine.close()
            if reference is None:
                reference = results
            else:
                for sql, expected, got in zip(sqls, reference, results):
                    assert expected.approx_equal(got), (
                        f"policy {policy} diverged on {sql}:\n"
                        f"expected {expected.rows()}\n"
                        f"got      {got.rows()}"
                    )

    @settings(max_examples=15, deadline=None)
    @given(sql=range_queries())
    def test_awk_baseline_agrees(self, sql, small_csv):
        engine = NoDBEngine(EngineConfig(policy="fullload"))
        engine.attach("r", small_csv)
        awk = AwkEngine()
        awk.attach("r", small_csv)
        try:
            assert engine.query(sql).approx_equal(awk.query(sql))
        finally:
            engine.close()

    @settings(max_examples=10, deadline=None)
    @given(sqls=st.lists(range_queries(), min_size=2, max_size=4))
    def test_v2_reuse_does_not_corrupt(self, sqls, small_csv):
        """Run each query twice under V2: the repeat must match the first."""
        engine = NoDBEngine(EngineConfig(policy="partial_v2"))
        engine.attach("r", small_csv)
        try:
            for sql in sqls:
                first = engine.query(sql)
                second = engine.query(sql)
                assert first.approx_equal(second), sql
        finally:
            engine.close()

    @settings(max_examples=10, deadline=None)
    @given(sqls=st.lists(range_queries(), min_size=2, max_size=6))
    def test_eviction_preserves_answers(self, sqls, small_csv):
        """A tiny memory budget forces constant eviction; answers hold."""
        unbounded = NoDBEngine(EngineConfig(policy="column_loads"))
        tight = NoDBEngine(
            EngineConfig(policy="column_loads", memory_budget_bytes=6000)
        )
        unbounded.attach("r", small_csv)
        tight.attach("r", small_csv)
        try:
            for sql in sqls:
                assert unbounded.query(sql).approx_equal(tight.query(sql)), sql
        finally:
            unbounded.close()
            tight.close()
