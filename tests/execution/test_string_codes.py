"""String columns as dictionary codes, checked against plain Python.

The differential suites compare the engine with ``CSVEngine``, which runs
the same parser and executor, so a mistake in the codes would show on
both sides alike.  Here every expected answer is computed in pure Python
from the rows written to the file, and the engine answers under each
route that builds codes differently: one bulk encode (column loads),
fragments merged into one dictionary (partial loads over two
overlapping ranges), split files, and two part files of one table.
"""

from __future__ import annotations

import shutil
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import EngineConfig, NoDBEngine

#: The differential harness's non-ASCII letters, plus two ASCII ones so
#: some columns stay pure ASCII (the ``S``-bytes encode path).
ALPHABET = "ßéあxy"

_text = st.text(alphabet=ALPHABET, max_size=4)

#: A general column (empty strings likely), one value repeated, or every
#: value distinct.
string_columns = st.one_of(
    st.lists(st.one_of(st.just(""), _text), min_size=2, max_size=40),
    st.tuples(_text, st.integers(2, 40)).map(lambda p: [p[0]] * p[1]),
    st.lists(_text, min_size=2, max_size=40, unique=True),
)

CONFIGS = {
    "column_loads": {"policy": "column_loads"},
    "partial_v1": {"policy": "partial_v1"},
    "partial_v2": {"policy": "partial_v2"},
    "splitfiles": {"policy": "splitfiles"},
}


def _write(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _quote(value: str) -> str:
    return "'" + value + "'"


def _rows(engine, sql) -> list[tuple]:
    return [
        tuple(c if isinstance(c, str) else int(c) for c in row)
        for row in engine.query(sql).rows()
    ]


def _check(engine, s_values, d_keys, probe, absent) -> None:
    n = len(s_values)
    rows = [(k, s, k % 3) for k, s in enumerate(s_values)]
    lo, hi = n // 4 - 1, (3 * n) // 4 + 1
    in_range = [r for r in rows if lo < r[0] < hi]

    # Two overlapping ranges first: partial loads store both fragments,
    # so the column's dictionary merges them.
    for a, b in ((lo, hi), (n // 2 - 1, n)):
        want = Counter(s for k, s, _ in rows if a < k < b)
        got = _rows(engine, f"select s, count(*) from t where k > {a} and k < {b} group by s")
        assert sorted(got) == sorted(want.items())
    got = _rows(engine, f"select s from t where k > {lo} and k < {hi}")
    assert sorted(got) == sorted((s,) for _, s, _ in in_range)

    groups = Counter(s for _, s, _ in rows)
    sums: dict[str, int] = {}
    for _, s, v in rows:
        sums[s] = sums.get(s, 0) + v
    got = _rows(engine, "select s, count(*), sum(v) from t group by s")
    assert got == sorted((s, groups[s], sums[s]) for s in groups)

    for literal in (probe, absent):
        q = _quote(literal)
        assert _rows(engine, f"select count(*) from t where s = {q}") == [
            (sum(s == literal for s in s_values),)
        ]
        assert _rows(engine, f"select count(*) from t where s != {q}") == [
            (sum(s != literal for s in s_values),)
        ]
        assert _rows(engine, f"select k from t where s < {q} order by k") == [
            (k,) for k, s, _ in rows if s < literal
        ]
    members = (probe, absent, "")
    got = _rows(engine, f"select k from t where s in ({', '.join(map(_quote, members))})")
    assert sorted(got) == [(k,) for k, s, _ in rows if s in members]

    assert _rows(engine, "select min(s), max(s), count(distinct s) from t") == [
        (min(s_values), max(s_values), len(set(s_values)))
    ]
    want = []
    for g in sorted({v for _, _, v in rows}):
        members_g = [s for _, s, v in rows if v == g]
        want.append((g, min(members_g), max(members_g), len(set(members_g))))
    got = _rows(engine, "select v, min(s), max(s), count(distinct s) from t group by v")
    assert got == want

    assert sorted(_rows(engine, "select distinct s from t")) == sorted(
        (s,) for s in set(s_values)
    )
    asc = sorted(rows, key=lambda r: (r[1], r[0]))
    assert _rows(engine, "select s, k from t order by s, k") == [(s, k) for k, s, _ in asc]
    desc = sorted(sorted(rows, key=lambda r: r[0]), key=lambda r: r[1], reverse=True)
    assert _rows(engine, "select s, k from t order by s desc, k") == [
        (s, k) for k, s, _ in desc
    ]
    assert _rows(engine, "select distinct s from t order by s desc") == [
        (s,) for s in sorted(set(s_values), reverse=True)
    ]

    weight = {key: w for w, key in enumerate(d_keys)}
    got = _rows(engine, "select t.k, d.w from t join d on t.s = d.key")
    assert sorted(got) == sorted((k, weight[s]) for k, s, _ in rows if s in weight)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(s_values=string_columns, extra=st.lists(_text, max_size=4), data=st.data())
@pytest.mark.parametrize("config", sorted(CONFIGS) + ["multifile"])
def test_string_answers_match_python(tmp_path, config, s_values, extra, data):
    probe = data.draw(st.sampled_from(s_values))
    # Longer than any drawn value, so absent from the column.
    absent = data.draw(st.text(alphabet=ALPHABET, min_size=5, max_size=5))
    # The join's dimension: some of the table's values, some new ones.
    d_keys = sorted(set(s_values[::2]) | set(extra))
    assume(d_keys)
    root = tmp_path / "case"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir()
    rows = [(k, s, k % 3) for k, s in enumerate(s_values)]
    _write(root / "d.csv", "key,w", [(key, w) for w, key in enumerate(d_keys)])
    if config == "multifile":
        parts = root / "parts"
        parts.mkdir()
        half = len(rows) // 2
        _write(parts / "part-000.csv", "k,s,v", rows[:half])
        _write(parts / "part-001.csv", "k,s,v", rows[half:])
        table, options = parts, {"policy": "column_loads"}
    else:
        table, options = root / "t.csv", CONFIGS[config]
        _write(table, "k,s,v", rows)
    engine = NoDBEngine(EngineConfig(**options))
    try:
        engine.attach("t", table)
        engine.attach("d", root / "d.csv")
        _check(engine, s_values, d_keys, probe, absent)
    finally:
        engine.close()
