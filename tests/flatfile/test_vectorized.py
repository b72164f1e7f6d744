"""The shipped tokenizer == the scalar oracle, property-tested.

Wherever the bulk-tokenization kernel runs, ``tokenize_bytes`` must be
indistinguishable from the scalar oracle (``tests/scalar_oracle.py``) in
everything but speed: emitted fields, row ids, *every*
:class:`TokenizerStats` counter and pushdown-predicate evaluation
sequences.  Its learned positional map is the oracle's plus every
further column, since the kernel's frame holds them all; each further
column's spans must slice exactly that column's fields.  Where the kernel declines
(ragged rows, a non-ASCII delimiter, non-ASCII fixed-width), the
dialect loop answers instead, and only the answer is pinned: fields, row
ids and whether the pass raised.  These tests drive both over the same
bytes — Hypothesis-generated tables plus handcrafted edge cases (ragged
rows, blank lines, CRLF, trailing delimiters, non-ASCII, NUL bytes,
headers).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FlatFileError
from repro.flatfile.dialects import (
    DelimitedAdapter,
    FixedWidthAdapter,
    TsvAdapter,
)
from repro.flatfile.positions import PositionalMap
from repro.flatfile.tokenizer import tokenize_bytes
from repro.flatfile.vectorized import _frame_grid, tokenize_vectorized
from scalar_oracle import field_texts, scalar_tokenize_bytes

CSV = DelimitedAdapter(",")


def _pmap_state(pmap: PositionalMap):
    return {
        "nrows": pmap.nrows,
        "starts": {c: pmap.slices_for(c)[0].tolist() for c in pmap.known_columns()},
        "ends": {c: pmap.slices_for(c)[1].tolist() for c in pmap.known_columns()},
        "geometry": pmap.text_geometry,
    }


def _stats_state(stats):
    return {
        "rows_scanned": stats.rows_scanned,
        "rows_emitted": stats.rows_emitted,
        "rows_abandoned": stats.rows_abandoned,
        "fields_tokenized": stats.fields_tokenized,
        "chars_scanned": stats.chars_scanned,
    }


def _flatten(log):
    return [(c, v) for c, values in log for v in values]


class _Recorded:
    """Test-side adapter giving a plain per-value predicate both forms.

    ``__call__`` (the per-row loops) logs one value; ``mask`` (the kernel)
    logs the whole array it was handed.  Concatenated, either route's log
    is the sequence of values the predicate saw.
    """

    def __init__(self, col, fn, log):
        self.col, self.fn, self.log = col, fn, log

    def __call__(self, value):
        self.log.append((self.col, [value]))
        return self.fn(value)

    def mask(self, values):
        values = field_texts(values)
        self.log.append((self.col, values))
        return np.array([bool(self.fn(v)) for v in values], dtype=bool)


def _kernel_declines(data: bytes, adapter, ncols, needed, skip_rows) -> bool:
    """Does the kernel hand this input to the dialect loop?"""
    try:
        result = tokenize_vectorized(
            data, adapter, ncols, needed, learn=False, skip_rows=skip_rows
        )
    except FlatFileError:
        return False
    return result is None


def assert_routes_agree(
    data: bytes,
    adapter,
    ncols: int,
    needed,
    *,
    early_abort=True,
    make_predicates=None,
    skip_rows=0,
    learn=True,
    warm=None,
):
    """Run ``tokenize_bytes`` and the oracle over ``data`` and diff them.

    Every observable must be identical where the kernel runs; where it
    declines, fields, row ids and raising-or-not must.
    ``make_predicates`` returns plain per-value predicates by column;
    each route gets them wrapped in its own :class:`_Recorded` log, and
    the concatenated logs must match; ``warm`` is a positional map both
    routes start from (each gets its own deep copy).  Returns
    (outcome, call_log, result) triples, ``tokenize_bytes``'s first.
    """
    outcomes = []
    for tokenize in (tokenize_bytes, scalar_tokenize_bytes):
        # The shipped route over ASCII bytes must hand out S arrays.
        ascii_input = tokenize is tokenize_bytes and data.isascii()
        pmap = None
        if learn:
            pmap = copy.deepcopy(warm) if warm is not None else PositionalMap()
        log: list[tuple[int, list[str]]] = []
        predicates = (
            {c: _Recorded(c, fn, log) for c, fn in make_predicates().items()}
            if make_predicates
            else None
        )
        try:
            result = tokenize(
                data,
                adapter,
                ncols=ncols,
                needed=needed,
                early_abort=early_abort,
                predicates=predicates,
                positional_map=pmap,
                learn=learn,
                skip_rows=skip_rows,
            )
        except FlatFileError:
            outcomes.append(("error", _flatten(log), None))
            continue
        outcomes.append(
            (
                {
                    "fields": {
                        c: field_texts(vals, ascii_input=ascii_input)
                        for c, vals in result.fields.items()
                    },
                    "row_ids": result.row_ids.tolist(),
                    "stats": _stats_state(result.stats),
                    "pmap": _pmap_state(pmap) if pmap is not None else None,
                },
                _flatten(log),
                result,
            )
        )
    shipped, oracle = outcomes
    if _kernel_declines(data, adapter, ncols, needed, skip_rows):
        assert _answer(shipped[0]) == _answer(oracle[0]), (
            f"dialect loop != oracle for {data!r}"
        )
    else:
        assert _without_map(shipped[0]) == _without_map(oracle[0]), (
            f"kernel != oracle for {data!r}"
        )
        if shipped[0] != "error" and learn:
            assert_map_extends(
                shipped[0]["pmap"], oracle[0]["pmap"], data, adapter, ncols, skip_rows
            )
        assert shipped[1] == oracle[1], (
            f"predicate call sequences differ for {data!r}"
        )
    return outcomes


def _without_map(outcome):
    if outcome == "error":
        return outcome
    return {k: v for k, v in outcome.items() if k != "pmap"}


def assert_map_extends(shipped, oracle, data, adapter, ncols, skip_rows):
    """The kernel learns the whole frame where the oracle's walk learns a
    prefix: the kernel's map is the oracle's map plus every further
    column, and each further column's spans slice exactly its fields."""
    assert (shipped["nrows"], shipped["geometry"]) == (
        oracle["nrows"],
        oracle["geometry"],
    )
    assert sorted(shipped["starts"]) == list(range(ncols))
    for key in ("starts", "ends"):
        assert {c: shipped[key][c] for c in oracle[key]} == oracle[key]
    extra = [c for c in range(ncols) if c not in oracle["starts"]]
    if not extra:
        return
    text = data.decode("utf-8")
    truth = scalar_tokenize_bytes(
        data, adapter, ncols, range(ncols), skip_rows=skip_rows, learn=False
    )
    for c in extra:
        spans = zip(shipped["starts"][c], shipped["ends"][c])
        raw = [text[s:e] for s, e in spans]
        assert field_texts(adapter.decode_many(raw)) == field_texts(truth.fields[c])


def _answer(outcome):
    if outcome == "error":
        return outcome
    return outcome["fields"], outcome["row_ids"]


# ---------------------------------------------------------------------------
# hypothesis: random tables in every eligible dialect
# ---------------------------------------------------------------------------

_FIELD_TEXT = st.text(
    alphabet="abz059. -éßあ\t\\\"'",
    max_size=6,
)


def _csv_safe(value: str, delimiter: str) -> str:
    out = value.replace(delimiter, "_").replace("\t", "_")
    return out.replace("\n", "_").replace("\r", "_")


@st.composite
def delimited_files(draw):
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(0, 8))
    delimiter = draw(st.sampled_from([",", ";", "|"]))
    rows = [
        [
            _csv_safe(draw(_FIELD_TEXT), delimiter)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    # Ragged mutations: drop or duplicate a field in some rows.
    for i in range(nrows):
        if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
            if rows[i] and draw(st.booleans()):
                rows[i] = rows[i][:-1]
            else:
                rows[i] = rows[i] + ["x"]
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [delimiter.join(r) for r in rows]
    # Inject blank lines.
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    text = line_end.join(lines)
    if lines and draw(st.booleans()):
        text += line_end
    needed = sorted(
        draw(
            st.sets(
                st.integers(0, ncols - 1), min_size=1, max_size=min(3, ncols)
            )
        )
    )
    return text.encode("utf-8"), delimiter, ncols, needed


@settings(max_examples=120, deadline=None)
@given(case=delimited_files(), early_abort=st.booleans())
def test_delimited_vectorized_equals_scalar(case, early_abort):
    data, delimiter, ncols, needed = case
    assert_routes_agree(
        data,
        DelimitedAdapter(delimiter),
        ncols,
        needed,
        early_abort=early_abort,
    )


@settings(max_examples=60, deadline=None)
@given(case=delimited_files())
def test_delimited_with_pushdown_predicates(case):
    data, delimiter, ncols, needed = case

    def make_predicates():
        return {0: lambda value: len(value) % 2 == 0} if 0 in needed else {}

    assert_routes_agree(
        data,
        DelimitedAdapter(delimiter),
        ncols,
        needed,
        make_predicates=make_predicates,
    )


def _scalar_warm_map(data: bytes, adapter, ncols: int, keep: int) -> PositionalMap:
    """A map the oracle learned, then trimmed to its first ``keep`` columns.

    One oracle pass over every column learns them all; re-recording a
    prefix of them yields any known-column set the map can hold (known
    columns are always a prefix).  Ragged input makes that pass raise,
    leaving a map that knows the row count only.
    """
    learned = PositionalMap()
    try:
        scalar_tokenize_bytes(
            data, adapter, ncols, range(ncols), positional_map=learned
        )
    except FlatFileError:
        pass
    pmap = PositionalMap()
    if learned.nrows is not None:
        pmap.record_nrows(learned.nrows)
    for col in learned.known_columns()[:keep]:
        pmap.record_field_offsets(col, *learned.slices_for(col), sep=adapter.sep)
    if learned.text_geometry is not None:
        pmap.record_text_geometry(*learned.text_geometry)
    return pmap


@settings(max_examples=150, deadline=None)
@given(
    case=delimited_files(),
    keep=st.integers(0, 5),
    early_abort=st.booleans(),
    with_predicate=st.booleans(),
)
def test_warm_map_vectorized_equals_scalar(case, keep, early_abort, with_predicate):
    """Both routes start from the same learned map: the kernel must visit,
    charge, filter and learn exactly what the oracle's anchor jumps do."""
    data, delimiter, ncols, needed = case
    adapter = DelimitedAdapter(delimiter)
    warm = _scalar_warm_map(data, adapter, ncols, keep)

    def make_predicates():
        return {needed[0]: lambda value: len(value) % 2 == 0} if with_predicate else {}

    assert_routes_agree(
        data,
        adapter,
        ncols,
        needed,
        early_abort=early_abort,
        make_predicates=make_predicates,
        warm=warm,
    )


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.lists(_FIELD_TEXT, min_size=3, max_size=3), min_size=0, max_size=8
    ),
    early_abort=st.booleans(),
)
def test_tsv_vectorized_equals_scalar(rows, early_abort):
    adapter = TsvAdapter()
    text = "".join(adapter.encode_row(r) + "\n" for r in rows)
    assert_routes_agree(
        text.encode("utf-8"), adapter, 3, [0, 2], early_abort=early_abort
    )


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.lists(
            st.text(alphabet="abz059.x", max_size=4),
            min_size=3,
            max_size=3,
        ),
        min_size=0,
        max_size=8,
    ),
    needed=st.sets(st.integers(0, 2), min_size=1, max_size=3),
)
def test_fixed_width_vectorized_equals_scalar(rows, needed):
    adapter = FixedWidthAdapter((5, 5, 5))
    text = "".join(adapter.encode_row(r) + "\n" for r in rows)
    assert_routes_agree(
        text.encode("utf-8"), adapter, 3, sorted(needed)
    )


# ---------------------------------------------------------------------------
# hypothesis: the one-pass grid frames regular files and declines the rest
# ---------------------------------------------------------------------------


@st.composite
def grid_files(draw):
    """Plain CSV or TSV, each decline rule of the grid drawn now and then:
    blank lines, CRLF, no final newline, ragged rows, one column (whose
    empty fields are blank lines), a header (alone, too), empty input and
    non-ASCII text."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    adapter = CSV if delimiter == "," else TsvAdapter()
    ncols = draw(st.integers(1, 4))
    field = st.text(alphabet="az09. -éあ", max_size=4)
    rows = [[draw(field) for _ in range(ncols)] for _ in range(draw(st.integers(0, 6)))]
    header = draw(st.booleans())
    if header:
        rows.insert(0, [f"h{c}" for c in range(ncols)])
    if rows and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if ncols > 1 and draw(st.booleans()) else rows[i] + ["x"]
    lines = [delimiter.join(r) for r in rows]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "")
    line_end = "\r\n" if draw(st.integers(0, 3)) == 0 else "\n"
    text = line_end.join(lines)
    if lines and draw(st.integers(0, 3)) > 0:
        text += line_end
    needed = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=1)))
    return text.encode("utf-8"), adapter, ncols, needed, int(header)


@settings(max_examples=200, deadline=None)
@given(case=grid_files())
@example(case=(b"a\nb", CSV, 1, [0], 0))  # one column, no final newline
@example(case=(b"a,b\n\nc,d\n", CSV, 2, [1], 0))  # a blank line
def test_grid_frames_exactly_the_regular_files(case):
    data, adapter, ncols, needed, skip_rows = case
    delim = adapter.delimiter.encode()
    lines = data.split(b"\n")
    regular = data.endswith(b"\n") and all(
        line and not line.endswith(b"\r") and line.count(delim) == ncols - 1
        for line in lines[:-1]
    )
    frame = _frame_grid(np.frombuffer(data, np.uint8), ord(delim), ncols, skip_rows)
    assert (frame is not None) == regular
    if frame is not None:
        # Every column the grid frames is exactly the oracle's fields.
        row_starts, grid = frame
        truth = scalar_tokenize_bytes(
            data, adapter, ncols, range(ncols), skip_rows=skip_rows, learn=False
        )
        assert len(row_starts) == len(truth.row_ids)
        for c in range(ncols):
            starts = row_starts if c == 0 else grid[:, c - 1] + 1
            spans = zip(starts.tolist(), grid[:, c].tolist())
            fields = [data[s:e].decode("utf-8") for s, e in spans]
            assert fields == field_texts(truth.fields[c])
    # Framed by the grid or not, the kernel agrees with the oracle (fields,
    # row ids, counters and the map), or declines to the dialect loop.
    assert_routes_agree(data, adapter, ncols, needed, skip_rows=skip_rows)


# ---------------------------------------------------------------------------
# handcrafted edges
# ---------------------------------------------------------------------------


class TestEdgeCases:
    def test_trailing_delimiter_means_empty_last_field(self):
        out = assert_routes_agree(b"1,2,\n3,4,\n", CSV, 3, [2])
        assert out[0][0]["fields"][2] == ["", ""]

    def test_blank_lines_and_crlf(self):
        assert_routes_agree(b"1,2\r\n\r\n3,4\r\n\n5,6", CSV, 2, [0, 1])

    def test_header_skip(self):
        out = assert_routes_agree(b"h1,h2\n1,2\n3,4\n", CSV, 2, [0], skip_rows=1)
        assert out[0][0]["fields"][0] == ["1", "3"]

    def test_non_ascii_content_offsets_and_values(self):
        data = "é,ab\nあ素,ß\n".encode("utf-8")
        out = assert_routes_agree(data, CSV, 2, [0, 1])
        assert out[0][0]["fields"][0] == ["é", "あ素"]
        # Learned offsets are character offsets into the decoded text
        # ("あ素,ß" starts at char 5; its second field at char 8).
        assert out[0][0]["pmap"]["starts"][1] == [2, 8]

    def test_nul_bytes_inside_and_trailing_fields(self):
        data = b"a\x00,b\n\x00\x00,c\nd\x00x,e\n"
        out = assert_routes_agree(data, CSV, 2, [0, 1])
        assert out[0][0]["fields"][0] == ["a\x00", "\x00\x00", "d\x00x"]

    def test_ragged_rows_raise_identically(self):
        assert_routes_agree(b"1,2,3\n1\n", CSV, 3, [2])

    def test_ragged_only_beyond_needed_is_tolerated(self):
        # A short row to the *right* of the last needed column is invisible
        # to an early-abort pass; the kernel declines any ragged row, and
        # the dialect loop must agree with the oracle.
        out = assert_routes_agree(b"1,2,3,4\n5,6\n", CSV, 4, [0])
        assert out[0][0]["fields"][0] == ["1", "5"]

    def test_ragged_beyond_needed_is_tolerated_without_early_abort(self):
        # Early abort changes cost, never results: the ablation's tail
        # walk tolerates the short row too.
        for adapter, data in ((CSV, b"1,2,3,4\n5,6\n"), (TsvAdapter(), b"1\t2\t3\n5\t6\n")):
            ncols = data.split(b"\n")[0].count(adapter.delimiter.encode()) + 1
            out = assert_routes_agree(data, adapter, ncols, [0], early_abort=False)
            assert out[0][0]["fields"][0] == ["1", "5"]

    @pytest.mark.parametrize("early_abort", [True, False])
    def test_short_row_raises_before_its_predicate(self, early_abort):
        # Row 3 ends at its needed field with a column still owed: short,
        # even though the predicate would have abandoned it.
        def make_predicates():
            return {0: lambda value: len(value) % 2 == 0}

        out = assert_routes_agree(
            b",\n,\n,\n000",
            CSV,
            2,
            [0],
            early_abort=early_abort,
            make_predicates=make_predicates,
        )
        assert out[0][0] == "error"

    def test_empty_file(self):
        assert_routes_agree(b"", CSV, 3, [1])

    def test_empty_file_with_warm_map_learns_every_column(self):
        """Over zero rows the oracle learns every column up to the last
        needed one, whatever the map's anchors say."""
        warm = _scalar_warm_map(b"", CSV, 4, 3)
        out = assert_routes_agree(b"", CSV, 4, [3], warm=warm)
        assert sorted(out[0][0]["pmap"]["starts"]) == [0, 1, 2, 3]

    def test_single_column_no_delimiters(self):
        out = assert_routes_agree(b"10\n20\n30\n", CSV, 1, [0])
        assert out[0][0]["fields"][0] == ["10", "20", "30"]

    def test_wide_fields_take_slice_path(self):
        wide = "9" * 700
        data = f"{wide},1\n{wide},2\n".encode()
        out = assert_routes_agree(data, CSV, 2, [0, 1])
        assert out[0][0]["fields"][0] == [wide, wide]

    def test_tsv_escapes_decoded(self):
        adapter = TsvAdapter()
        row = adapter.encode_row(["a\tb", "c\\d", "e\nf"])
        out = assert_routes_agree((row + "\n").encode(), adapter, 3, [0, 1, 2])
        assert out[0][0]["fields"][0] == ["a\tb"]
        assert out[0][0]["fields"][1] == ["c\\d"]
        assert out[0][0]["fields"][2] == ["e\nf"]

    def test_fixed_width_padding_stripped(self):
        adapter = FixedWidthAdapter((4, 4))
        out = assert_routes_agree(b"ab  cd  \nefgha   \n", adapter, 2, [0, 1])
        assert out[0][0]["fields"][0] == ["ab", "efgh"]
        assert out[0][0]["fields"][1] == ["cd", "a"]

    def test_fixed_width_bad_row_raises_identically(self):
        assert_routes_agree(b"ab  cd  \nefg\n", FixedWidthAdapter((4, 4)), 2, [0])

    def test_fixed_width_nul_fields_with_predicate(self):
        """NUL-trailing fields force object-dtype batches; predicate
        filtering must still index them as arrays (regression: the
        decode_many fallback once returned a list here)."""
        adapter = FixedWidthAdapter((3, 3))

        def make_predicates():
            return {0: lambda v: v.startswith("c")}

        out = assert_routes_agree(
            b"ab\x00xyz\ncd qqq\nef rrr\n",
            adapter,
            2,
            [0, 1],
            make_predicates=make_predicates,
        )
        assert out[0][0]["fields"][1] == ["qqq"]

    def test_fixed_width_non_ascii_falls_back(self):
        adapter = FixedWidthAdapter((3, 3))
        data = "éa bc \nxy z  \n".encode("utf-8")
        out = assert_routes_agree(data, adapter, 2, [0, 1])
        assert out[0][0]["fields"][0] == ["éa", "xy"]


class TestKernelDeclines:
    def test_runs_with_anchors(self):
        """A warm map keeps the pass on the kernel, which charges the
        oracle's anchor jumps' work itself."""
        data = b"1,2,3\n4,5,6\n"
        pmap = PositionalMap()
        scalar_tokenize_bytes(data, CSV, 3, [1], positional_map=pmap)
        assert pmap.knows_column(1)
        assert (
            tokenize_vectorized(
                data, CSV, 3, [2], positional_map=copy.deepcopy(pmap)
            )
            is not None
        )
        out = assert_routes_agree(data, CSV, 3, [2], warm=pmap)
        # Jump to column 1, scan over it (2 chars), then field 2 (1 char).
        assert out[0][0]["stats"]["fields_tokenized"] == 4
        assert out[0][0]["stats"]["chars_scanned"] == len(data) + 2 * 3

    def test_declines_on_ragged_rows(self):
        assert tokenize_vectorized(b"1,2\n3\n", CSV, 2, [0]) is None

    def test_declines_on_non_ascii_delimiter(self):
        assert (
            tokenize_vectorized("1é2\n".encode(), DelimitedAdapter("é"), 2, [0])
            is None
        )

    def test_declines_on_invalid_utf8(self):
        """The kernel must not silently tokenize bytes no decoded string
        ever had; the fallback's decode raises the taxonomy error, naming
        the file and the byte."""
        data = b"1,a\xe9b,3\n4,x,6\n"  # lone latin-1 byte: invalid UTF-8
        assert tokenize_vectorized(data, CSV, 3, [0]) is None
        with pytest.raises(FlatFileError, match=r"^t\.csv is not valid UTF-8.* at byte 3$"):
            tokenize_bytes(data, CSV, 3, [0], source="t.csv")
        with pytest.raises(FlatFileError, match="at byte 103$"):
            tokenize_bytes(data, CSV, 3, [0], source="t.csv", offset=100)

    def test_runs_on_regular_input(self):
        result = tokenize_vectorized(b"1,2\n3,4\n", CSV, 2, [1])
        assert result is not None
        assert field_texts(result.fields[1], ascii_input=True) == ["2", "4"]


class TestValidationParity:
    def test_bad_ncols(self):
        with pytest.raises(FlatFileError):
            tokenize_vectorized(b"1\n", CSV, 0, [0])

    def test_no_needed(self):
        with pytest.raises(FlatFileError):
            tokenize_vectorized(b"1\n", CSV, 2, [])

    def test_out_of_range(self):
        with pytest.raises(FlatFileError):
            tokenize_vectorized(b"1,2\n", CSV, 2, [2])

    def test_predicate_on_untokenized_column(self):
        with pytest.raises(FlatFileError):
            tokenize_vectorized(
                b"1,2\n", CSV, 2, [0], predicates={1: lambda s: True}
            )


class TestBulkLearning:
    def test_absorb_offsets_matches_scalar_learning(self):
        data = b"10,20,30\n11,21,31\n"
        vec_map, scalar_map = PositionalMap(), PositionalMap()
        tokenize_bytes(data, CSV, 3, [2], positional_map=vec_map)
        scalar_tokenize_bytes(data, CSV, 3, [2], positional_map=scalar_map)
        assert _pmap_state(vec_map) == _pmap_state(scalar_map)
        assert vec_map.knows_column(0) and vec_map.knows_column(2)

    def test_first_writer_wins(self):
        pmap = PositionalMap()
        pmap.record_field_offsets(
            0, np.array([7], dtype=np.int64), np.array([9], dtype=np.int64), sep=1
        )
        pmap.record_field_offsets(
            0, np.array([0], dtype=np.int64), np.array([1], dtype=np.int64), sep=1
        )
        assert pmap.slices_for(0)[0].tolist() == [7]
