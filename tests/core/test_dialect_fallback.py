"""Plain CSV the bulk kernel declines: the dialect loop answers instead.

The kernel refuses ragged rows, a non-ASCII delimiter and invalid UTF-8;
``tokenize_bytes`` then decodes the bytes and runs the adapter's field
loop.  Under every loading policy, on a cold pass and on the warm passes
after it, that fallback must answer like the :class:`CSVEngine` oracle
or raise the same taxonomy error — never a raw ``UnicodeDecodeError``.
"""

from __future__ import annotations

import re

import pytest

from repro import CSVEngine, EngineConfig, NoDBEngine
from repro.config import POLICIES
from repro.errors import FlatFileError
from repro.flatfile.dialects import DelimitedAdapter
from repro.flatfile.vectorized import tokenize_vectorized

NROWS = 200
#: Past the 128-row schema-inference sample.
ODD_ROW = 150
#: Policies that tokenize every column of every row on a pass.
WHOLE_ROW_POLICIES = {"fullload", "external"}


def _rows(delimiter: str = ",") -> list[str]:
    return [
        delimiter.join(str(i * 10 + j) for j in range(4)) for i in range(NROWS)
    ]


def _write(path, rows: list[str]):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def _declined(path, delimiter: str = ",") -> bool:
    adapter = DelimitedAdapter(delimiter)
    return tokenize_vectorized(path.read_bytes(), adapter, 4, [0], learn=False) is None


def _answers(path, queries, policy=None, delimiter=","):
    """Each query's rows, or the FlatFileError it raised, on one engine."""
    engine = (
        CSVEngine() if policy is None else NoDBEngine(EngineConfig(policy=policy))
    )
    try:
        engine.attach("t", path, delimiter=delimiter)
        out = []
        for sql in queries:
            try:
                out.append(engine.query(sql).rows())
            except FlatFileError as exc:
                out.append(exc)
        return out
    finally:
        engine.close()


# cold, then warm: the same table queried again on the same engine
NEEDED_ONLY = [
    "select sum(a1), sum(a2) from t",
    "select sum(a2) from t where a1 > 1000",
    "select sum(a1), sum(a2) from t",
]


@pytest.mark.parametrize("policy", POLICIES)
class TestDeclinedPlainCsv:
    def test_short_row_with_every_needed_column_answers(self, tmp_path, policy):
        rows = _rows()
        full = _write(tmp_path / "full.csv", rows)
        rows[ODD_ROW] = ",".join(rows[ODD_ROW].split(",")[:3])
        short = _write(tmp_path / "short.csv", rows)
        assert _declined(short)
        got = _answers(short, NEEDED_ONLY, policy)
        if policy in WHOLE_ROW_POLICIES:
            # Tokenizing every column reaches the missing one, as the
            # oracle (the external policy) does.
            oracle = _answers(short, NEEDED_ONLY)
            assert all(isinstance(g, FlatFileError) for g in got + oracle)
            assert all("fewer than 4 fields" in str(g) for g in got)
        else:
            # The needed columns are all there: the same answers as the
            # oracle over the row completed.
            assert got == _answers(full, NEEDED_ONLY)

    def test_short_row_lacking_a_needed_column_raises(self, tmp_path, policy):
        rows = _rows()
        rows[ODD_ROW] = ",".join(rows[ODD_ROW].split(",")[:2])
        short = _write(tmp_path / "short.csv", rows)
        assert _declined(short)
        queries = [
            "select sum(a4) from t",  # cold
            "select sum(a1) from t",  # may answer: a1 is there
            "select sum(a3) from t where a1 > 10",  # warm, a3 is not
        ]
        got = _answers(short, queries, policy)
        for i in (0, 2):
            assert isinstance(got[i], FlatFileError), (policy, got)
            assert "fewer than" in str(got[i])
        oracle = _answers(short, queries)
        assert all(isinstance(o, FlatFileError) for o in oracle)

    def test_extra_trailing_fields_are_ignored(self, tmp_path, policy):
        rows = _rows()
        rows[ODD_ROW] += ",99,98"
        rows[ODD_ROW + 1] += ",97"
        extra = _write(tmp_path / "extra.csv", rows)
        assert _declined(extra)
        queries = [
            "select sum(a4) from t",
            "select sum(a1), max(a4) from t where a2 > 1000",
            "select sum(a4) from t",
            "select count(*) from t where a3 < 500",
        ]
        got = _answers(extra, queries, policy)
        assert got == _answers(extra, queries)
        assert not any(isinstance(g, FlatFileError) for g in got)

    def test_non_ascii_delimiter(self, tmp_path, policy):
        path = _write(tmp_path / "section.csv", _rows("§"))
        assert _declined(path, "§")
        queries = [
            "select sum(a2) from t",
            "select a4 from t where a2 > 1900",
            "select sum(a2), sum(a3) from t where a1 < 1000",
            "select sum(a2) from t",
        ]
        got = _answers(path, queries, policy, delimiter="§")
        assert got == _answers(path, queries, delimiter="§")
        assert got[0] == [(sum(i * 10 + 1 for i in range(NROWS)),)]


@pytest.mark.parametrize("where", ["sample", "beyond_sample"])
@pytest.mark.parametrize("policy", [*POLICIES, None])
def test_invalid_utf8_is_a_flat_file_error(tmp_path, policy, where):
    """A lone Latin-1 byte raises FlatFileError naming the file and byte,
    from schema sampling and from a full pass alike (``None``: the
    CSVEngine oracle)."""
    rows = [row.encode() for row in _rows()]
    bad = 5 if where == "sample" else ODD_ROW
    rows[bad] = rows[bad].replace(b",", b",\xe9", 1)
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\n".join(rows) + b"\n")
    offset = path.read_bytes().index(b"\xe9")
    pattern = f"^{re.escape(str(path))} is not valid UTF-8: .* at byte {offset}$"
    got = _answers(path, ["select sum(a1) from t", "select sum(a2) from t"], policy)
    for outcome in got:
        assert isinstance(outcome, FlatFileError), (policy, got)
        assert re.match(pattern, str(outcome)), str(outcome)
