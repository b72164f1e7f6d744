"""Tests for dataset generation and query templates."""

import numpy as np
import pytest

from benchmarks.workload import (
    TableSpec,
    figure3_sequence,
    figure4_sequence,
    generate_columns,
    generate_join_pair,
    make_q1,
    make_q2,
    materialize_csv,
)


class TestGenerator:
    def test_columns_are_permutations(self):
        spec = TableSpec(nrows=100, ncols=3, seed=1)
        for col in generate_columns(spec):
            assert sorted(col.tolist()) == list(range(100))

    def test_deterministic(self):
        spec = TableSpec(nrows=50, ncols=2, seed=9)
        a = generate_columns(spec)
        b = generate_columns(spec)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        a = generate_columns(TableSpec(nrows=50, ncols=1, seed=1))[0]
        b = generate_columns(TableSpec(nrows=50, ncols=1, seed=2))[0]
        assert (a != b).any()

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            TableSpec(nrows=0, ncols=1)

    def test_materialize_round_trip(self, tmp_path):
        spec = TableSpec(nrows=10, ncols=2, seed=4)
        path = materialize_csv(spec, tmp_path / "t.csv")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 10
        cols = generate_columns(spec)
        first_row = lines[0].split(",")
        assert int(first_row[0]) == cols[0][0]

    def test_join_pair_keys_match(self):
        left, right = generate_join_pair(100, payload_cols=2)
        assert sorted(left[0].tolist()) == sorted(right[0].tolist())
        assert len(left) == 3 and len(right) == 3


class TestQueryTemplates:
    def test_q1_shape(self):
        q = make_q1(1000)
        assert "sum(a1)" in q.sql and "min(a4)" in q.sql
        assert q.columns == ("a1", "a2", "a3", "a4")

    def test_q2_columns(self):
        q = make_q2(1000, "a7", "a8")
        assert "sum(a7)" in q.sql and "avg(a8)" in q.sql

    def test_selectivity_approximate(self):
        """The conjunction selects ~10% of rows on independent uniform data."""
        spec = TableSpec(nrows=20000, ncols=2, seed=3)
        a1, a2 = generate_columns(spec)
        rng = np.random.default_rng(11)
        rates = []
        for _ in range(10):
            q = make_q2(20000, "a1", "a2", selectivity=0.10, rng=rng)
            (v1, v2), (v3, v4) = q.bounds
            mask = (a1 > v1) & (a1 < v2) & (a2 > v3) & (a2 < v4)
            rates.append(mask.mean())
        assert 0.05 < float(np.mean(rates)) < 0.15

    def test_bounds_inside_domain(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = make_q2(1000, "a1", "a2", rng=rng)
            for lo, hi in q.bounds:
                assert -1 <= lo < hi <= 1001


class TestSequences:
    def test_figure3_structure(self):
        seq = figure3_sequence(1000)
        assert len(seq) == 20
        assert all(q.columns == ("a1", "a2") for q in seq[:10])
        assert all(q.columns == ("a3", "a4") for q in seq[10:])

    def test_figure4_structure(self):
        seq = figure4_sequence(1000, ncols=12)
        assert len(seq) == 12
        # First pair hits the last two file columns (worst case for splits).
        assert seq[0].columns == ("a11", "a12")
        # Each query is immediately rerun.
        for i in range(0, 12, 2):
            assert seq[i].sql == seq[i + 1].sql
        # All column pairs distinct across runs.
        pairs = {seq[i].columns for i in range(0, 12, 2)}
        assert len(pairs) == 6

    def test_figure4_odd_columns_rejected(self):
        with pytest.raises(ValueError):
            figure4_sequence(100, ncols=11)

    def test_sequences_deterministic(self):
        a = [q.sql for q in figure3_sequence(500, seed=7)]
        b = [q.sql for q in figure3_sequence(500, seed=7)]
        assert a == b
