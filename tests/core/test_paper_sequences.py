"""The paper's exact query sequences, replayed under every policy.

Deterministic end-to-end coverage: the Figure 3, Figure 4 and exploration
sequences must produce identical answers under all six loading policies
and the Awk baseline — the same invariant the hypothesis suite checks with
random queries, here pinned to the workloads the benches time.
"""

import pytest

from benchmarks.awk import AwkEngine
from benchmarks.workload import (
    TableSpec,
    exploration_sequence,
    figure3_sequence,
    figure4_sequence,
    materialize_csv,
)
from repro import EngineConfig, NoDBEngine, POLICIES

NROWS = 400


@pytest.fixture(scope="module")
def narrow_csv(tmp_path_factory):
    return materialize_csv(
        TableSpec(nrows=NROWS, ncols=4, seed=61),
        tmp_path_factory.mktemp("seq") / "narrow.csv",
    )


@pytest.fixture(scope="module")
def wide12_csv(tmp_path_factory):
    return materialize_csv(
        TableSpec(nrows=NROWS, ncols=12, seed=62),
        tmp_path_factory.mktemp("seq") / "wide12.csv",
    )


def reference_results(path, sqls):
    engine = NoDBEngine(EngineConfig(policy="fullload"))
    engine.attach("r", path)
    results = [engine.query(s) for s in sqls]
    engine.close()
    return results


SEQUENCES = {
    "figure3": (lambda: figure3_sequence(NROWS, seed=5), "narrow"),
    "figure4": (lambda: figure4_sequence(NROWS, ncols=12, seed=6), "wide"),
    "exploration": (
        lambda: exploration_sequence(NROWS, depth=4, regions=2, seed=7),
        "narrow",
    ),
}


@pytest.mark.parametrize("policy", [p for p in POLICIES if p != "fullload"])
@pytest.mark.parametrize("sequence_name", list(SEQUENCES))
def test_sequence_equivalence(policy, sequence_name, narrow_csv, wide12_csv):
    make_seq, which = SEQUENCES[sequence_name]
    path = narrow_csv if which == "narrow" else wide12_csv
    sqls = [q.sql for q in make_seq()]
    expected = reference_results(path, sqls)

    engine = NoDBEngine(EngineConfig(policy=policy))
    engine.attach("r", path)
    try:
        for sql, ref in zip(sqls, expected):
            got = engine.query(sql)
            assert got.approx_equal(ref), f"{policy} diverged on {sql}"
    finally:
        engine.close()


@pytest.mark.parametrize("sequence_name", ["figure3", "exploration"])
def test_awk_sequence_equivalence(sequence_name, narrow_csv):
    make_seq, _ = SEQUENCES[sequence_name]
    sqls = [q.sql for q in make_seq()]
    expected = reference_results(narrow_csv, sqls)
    awk = AwkEngine()
    awk.attach("r", narrow_csv)
    for sql, ref in zip(sqls, expected):
        assert awk.query(sql).approx_equal(ref), sql
