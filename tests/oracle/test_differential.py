"""Differential testing: every dialect × policy × workers vs. the oracle.

Randomized tables and workloads (Hypothesis) are rendered in every
dialect the adapter layer supports; the adaptive engine under every
loading policy — cold and warm, serial and partitioned-parallel — must
return results identical to the :class:`CSVEngine` oracle (the external
policy, which re-reads and re-tokenizes the file on every query and so
cannot be wrong about dialect decoding without the whole substrate being
wrong, in which case the plain-CSV cross-check below catches it).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from harness import (
    DIALECTS,
    POLICIES,
    compare_engine_to_oracle,
    make_workload,
    normalize,
    oracle_results,
    render_table,
    tables,
)

from benchmarks.workload import TableSpec, generate_columns
from repro import EngineConfig, NoDBEngine

#: Acceptance matrix: worker counts the parallel sweep must cover.
WORKER_COUNTS = (1, 2, 4)


@settings(max_examples=6)
@given(columns=tables())
@pytest.mark.parametrize("dialect", DIALECTS)
def test_every_policy_matches_oracle(dialect, columns):
    """Random table + workload: all six policies equal the oracle."""
    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
        path, kwargs = render_table(Path(tmp), columns, dialect)
        queries = make_workload(columns, bounds=(-100, 400))
        expected = oracle_results(path, kwargs, queries)
        for policy in POLICIES:
            compare_engine_to_oracle(
                path, kwargs, queries, expected, policy, label=dialect
            )


@pytest.mark.parametrize("dialect", ("csv", "tsv", "fixed-width"))
def test_every_policy_matches_oracle_with_kernel_forced_off(
    dialect, tmp_path, monkeypatch
):
    """With the kernel declining every input, every policy must still
    equal the oracle computed on the kernel route.

    This keeps the dialect loop — the fallback for input the kernel
    declines (ragged rows, non-ASCII delimiters) — under the same
    end-to-end oracle as the default configuration.
    """
    columns = _seeded_table(nrows=150, ncols=3)
    path, kwargs = render_table(tmp_path, columns, dialect)
    queries = make_workload(columns, bounds=(40, 360))
    expected = oracle_results(path, kwargs, queries)
    monkeypatch.setattr(
        "repro.flatfile.vectorized.tokenize_vectorized",
        lambda *args, **kwargs: None,
    )
    for policy in POLICIES:
        compare_engine_to_oracle(
            path,
            kwargs,
            queries,
            expected,
            policy,
            label=f"{dialect} kernel declined",
        )


@settings(max_examples=6)
@given(columns=tables())
def test_dialects_agree_with_each_other(columns):
    """One logical table, five renderings: identical answers everywhere.

    This is the cross-check that keeps the oracle honest: the oracle for
    each dialect shares the adapter with the engine under test, but the
    plain-CSV rendering exercises the original (paper-validated)
    substrate, so any dialect whose decoding drifts from plain CSV fails
    here even if engine and oracle drift together.
    """
    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
        queries = make_workload(columns, bounds=(-100, 400))
        reference = None
        for dialect in DIALECTS:
            path, kwargs = render_table(Path(tmp), columns, dialect)
            got = oracle_results(path, kwargs, queries)
            if reference is None:
                reference = got
            else:
                assert got == reference, f"dialect {dialect} drifts from csv"


def _seeded_table(nrows: int = 400, ncols: int = 4) -> list[list]:
    cols = generate_columns(TableSpec(nrows=nrows, ncols=ncols, seed=977))
    return [c.tolist() for c in cols]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("dialect", DIALECTS)
def test_worker_counts_match_oracle(dialect, workers, tmp_path):
    """Cold + warm answers are identical at every worker count.

    ``partition_min_bytes`` is forced tiny so multi-worker configs really
    partition (where the dialect allows it); quoted CSV and JSON-lines
    must instead degrade to a serial scan — and still answer identically.
    """
    columns = _seeded_table()
    path, kwargs = render_table(tmp_path, columns, dialect)
    queries = make_workload(columns, bounds=(40, 360))
    expected = oracle_results(path, kwargs, queries)
    for policy in ("column_loads", "partial_v2", "fullload"):
        engine = NoDBEngine(
            EngineConfig(
                policy=policy,
                parallel_workers=workers,
                partition_min_bytes=64,
            )
        )
        try:
            engine.attach("t", path, **kwargs)
            partitions_seen = 0
            for i, (query, want) in enumerate(zip(queries, expected)):
                got = normalize(engine.query(query))
                assert got == want, (
                    f"[{dialect} workers={workers}] policy={policy} "
                    f"query#{i} {query!r}: {got!r} != {want!r}"
                )
                partitions_seen = max(
                    partitions_seen, engine.stats.last().parallel_partitions
                )
            if workers > 1 and dialect in ("quoted-csv", "jsonl"):
                # records may span newlines (quoted CSV), or the record
                # loop holds the GIL (JSON-lines): the scan stays serial
                assert partitions_seen == 0
            elif workers > 1 and policy != "partial_v2":
                assert partitions_seen >= 2
        finally:
            engine.close()


@pytest.mark.parametrize("dialect", DIALECTS)
def test_cold_vs_warm_engine_restart(dialect, tmp_path):
    """A fresh engine (cold file state) equals a long-lived warm one."""
    columns = _seeded_table(nrows=120, ncols=3)
    path, kwargs = render_table(tmp_path, columns, dialect)
    queries = make_workload(columns, bounds=(10, 110))
    expected = oracle_results(path, kwargs, queries)
    # warm: one engine runs the workload twice back to back
    engine = NoDBEngine(EngineConfig(policy="column_loads"))
    try:
        engine.attach("t", path, **kwargs)
        for lap in range(2):
            for i, (query, want) in enumerate(zip(queries, expected)):
                got = normalize(engine.query(query))
                assert got == want, (
                    f"[{dialect}] warm lap {lap} query#{i}: "
                    f"{got!r} != {want!r}"
                )
    finally:
        engine.close()
