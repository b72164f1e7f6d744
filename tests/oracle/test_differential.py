"""Differential testing: every dialect × policy vs. the oracle.

Randomized tables and workloads (Hypothesis) are rendered in every
dialect the adapter layer supports; the adaptive engine under every
loading policy — cold and warm — must
return results identical to the :class:`CSVEngine` oracle (the external
policy, which re-reads and re-tokenizes the file on every query and so
cannot be wrong about dialect decoding without the whole substrate being
wrong, in which case the plain-CSV cross-check below catches it).
"""

from __future__ import annotations

import random
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
from repro import CSVEngine, EngineConfig, NoDBEngine
from repro.errors import ReproError

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


@pytest.mark.parametrize("dialect", DIALECTS)
def test_seeded_workload_matches_oracle(dialect, tmp_path):
    """Cold + warm answers of a seeded 400-row table equal the oracle's
    under the store-keeping, predicate-loading and full-load policies."""
    columns = _seeded_table()
    path, kwargs = render_table(tmp_path, columns, dialect)
    queries = make_workload(columns, bounds=(40, 360))
    expected = oracle_results(path, kwargs, queries)
    for policy in ("column_loads", "partial_v2", "fullload"):
        compare_engine_to_oracle(path, kwargs, queries, expected, policy, label=dialect)


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


# ---------------------------------------------------------------------------
# edge inputs: framing and widening hazards, every policy against the oracle
# ---------------------------------------------------------------------------


def _random_edge_table(seed: int) -> list[str]:
    """Random column kinds, non-ASCII words, blank-line runs and (odd
    seeds) a header."""
    rng = random.Random(seed)
    ncols = rng.randint(2, 5)
    words = ["héllo", "wörld", "日本語", "x", "data🎉", "plain", ""]
    lines = [",".join(f"col{i}" for i in range(ncols))] if seed % 2 else []
    kinds = [rng.choice(["int", "float", "str"]) for _ in range(ncols)]
    for i in range(rng.randint(150, 400)):
        fields = []
        for kind in kinds:
            if kind == "int":
                fields.append(str(rng.randint(-(10 ** rng.randint(1, 9)), 10**9)))
            elif kind == "float":
                fields.append(f"{rng.uniform(-1e4, 1e4):.{rng.randint(1, 8)}f}")
            else:
                fields.append(rng.choice(words) + str(i))
        lines.append(",".join(fields))
        if rng.random() < 0.05:
            lines.extend([""] * rng.randint(1, 15))
    return lines


def _replaced(lines: list[str], at: int, text: str) -> list[str]:
    return lines[:at] + [text] + lines[at + 1 :]


def _blank_runs() -> list[str]:
    lines = []
    for i in range(120):
        lines.append(f"{i},{i % 5}")
        if i % 8 == 0:
            lines.extend([""] * 40)
    return lines


def _non_ascii_with_header() -> list[str]:
    rng = random.Random(5)
    words = ["héllo", "wörld", "日本語データ", "émoji🎉"]
    return ["name,val"] + [f"{rng.choice(words)}{i},{i}" for i in range(500)]


_PAIRS = [f"{i},{i * 3}" for i in range(300)]
_PUSHDOWN = "select sum(a2) from r where a1 > 10 and a1 < 250"

#: id -> (file lines, queries, the leading columns of the final schema
#: or None).  Lines ending in ``\r`` make a CRLF file.
EDGE_INPUTS = {
    **{
        f"random-{seed}": (_random_edge_table(seed), ["select count(*) from r"], None)
        for seed in (3, 4, 7, 12, 19)
    },
    "int-to-float-deep": (
        _replaced([f"{i},{i * 2}" for i in range(300)], 257, "3.25,514"),
        ["select sum(a1) from r"],
        [("a1", "float64")],
    ),
    "int-to-str-keeps-text": (
        _replaced([f"{i:04d},{i}" for i in range(400)], 391, "oops,391"),
        ["select count(*) from r", "select a1 from r where a2 > 5 and a2 < 9"],
        [("a1", "str")],
    ),
    "float-and-str-widening-in-one-pass": (
        _replaced([f"{i},{i * 2},{i % 7}" for i in range(400)], 350, "3.5,oops,0"),
        ["select sum(a1), count(a2), sum(a3) from r"],
        [("a1", "float64"), ("a2", "str")],
    ),
    "int-to-float-under-pushdown": (
        _replaced(_PAIRS, 222, "222.75,666"), [_PUSHDOWN], [("a1", "float64")]
    ),
    "int-to-str-under-pushdown": (_replaced(_PAIRS, 222, "x222,666"), [_PUSHDOWN], None),
    "blank-line-runs": (
        _blank_runs(), ["select sum(a1), count(*) from r where a2 > 1"], None
    ),
    "non-ascii-header": (
        _non_ascii_with_header(), ["select count(*) from r where val > 100"], None
    ),
    "non-ascii-after-ascii": (
        [f"{i},w{i}" for i in range(300)] + [f"{i},é{i}" for i in range(300, 600)],
        ["select a2 from r where a1 > 295 and a1 < 305"],
        None,
    ),
    "wide-field-after-narrow": (
        [f"{i},v{i},{'p' * 300}" for i in range(300)]
        + [f"{i},{'w' * 300},p" for i in range(300, 600)],
        ["select a2 from r where a1 > 297 and a1 < 302"],
        None,
    ),
    "ragged-row": (
        _replaced([f"{i},{i}" for i in range(200)], 150, "lonely"),
        ["select sum(a2) from r"],
        None,
    ),
    "crlf": ([f"{i},{i * 2}\r" for i in range(300)], ["select sum(a1), max(a2) from r"], None),
}


def _outcomes(engine, path, queries) -> list:
    """Each query's normalized rows, or ``"error"``, run twice: cold,
    then warm."""
    engine.attach("r", path)
    out = []
    for sql in queries + queries:
        try:
            out.append(normalize(engine.query(sql)))
        except ReproError:
            # Routes may name the failure differently (a pushdown
            # predicate fails in the reader, a mask in the executor).
            out.append("error")
    return out


@pytest.mark.parametrize(
    "lines, queries, schema", list(EDGE_INPUTS.values()), ids=list(EDGE_INPUTS)
)
@pytest.mark.parametrize("policy", POLICIES)
def test_edge_inputs_match_oracle(policy, lines, queries, schema, tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    oracle = CSVEngine()
    want = _outcomes(oracle, path, queries)
    oracle.close()
    with NoDBEngine(EngineConfig(policy=policy)) as engine:
        assert _outcomes(engine, path, queries) == want
        if schema is not None:
            assert engine.schema_of("r")[: len(schema)] == schema
