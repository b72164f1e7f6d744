"""Tests for the selective tokenizer — the heart of adaptive loading.

Everything here drives :func:`~repro.flatfile.tokenizer.tokenize_bytes`,
the route every loading operator takes; the kernel-vs-oracle property
suites live in ``test_vectorized.py``.
"""

from __future__ import annotations

import csv as stdlib_csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlatFileError
from repro.flatfile.dialects import DelimitedAdapter
from repro.flatfile.positions import PositionalMap
from repro.flatfile.tokenizer import gather_fields, tokenize_bytes
from scalar_oracle import field_texts, split_rows

TEXT = "10,20,30,40\n11,21,31,41\n12,22,32,42\n"


class _Both:
    """A plain per-value predicate in both ``RawPredicate`` forms."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, text):
        return self.fn(text)

    def mask(self, values):
        return np.array([bool(self.fn(v)) for v in field_texts(values)], dtype=bool)


def tok(text, ncols, needed, delimiter=",", predicates=None, **kwargs):
    """``tokenize_bytes`` over ``text``'s bytes; fields as plain lists."""
    if predicates is not None:
        predicates = {c: _Both(fn) for c, fn in predicates.items()}
    r = tokenize_bytes(
        text.encode(),
        DelimitedAdapter(delimiter),
        ncols,
        needed,
        predicates=predicates,
        **kwargs,
    )
    ascii_input = text.isascii()
    r.fields = {
        c: field_texts(values, ascii_input=ascii_input)
        for c, values in r.fields.items()
    }
    return r


class TestBasicExtraction:
    def test_single_column(self):
        r = tok(TEXT, 4, [1])
        assert r.fields[1] == ["20", "21", "22"]
        assert list(r.row_ids) == [0, 1, 2]

    def test_multiple_columns(self):
        r = tok(TEXT, 4, [0, 3])
        assert r.fields[0] == ["10", "11", "12"]
        assert r.fields[3] == ["40", "41", "42"]

    def test_unsorted_and_duplicate_needed(self):
        r = tok(TEXT, 4, [3, 1, 1])
        assert set(r.fields) == {1, 3}

    def test_last_column_no_trailing_delimiter(self):
        r = tok("1,2\n3,4\n", 2, [1])
        assert r.fields[1] == ["2", "4"]

    def test_trailing_newline_optional(self):
        r = tok("1,2\n3,4", 2, [0])
        assert r.fields[0] == ["1", "3"]

    def test_blank_lines_skipped(self):
        r = tok("1,2\n\n3,4\n\n", 2, [0])
        assert r.fields[0] == ["1", "3"]

    def test_crlf_line_endings(self):
        r = tok("1,2\r\n3,4\r\n", 2, [1])
        assert r.fields[1] == ["2", "4"]

    def test_skip_rows(self):
        r = tok("h1,h2\n1,2\n3,4\n", 2, [0], skip_rows=1)
        assert r.fields[0] == ["1", "3"]

    def test_custom_delimiter(self):
        r = tok("1|2\n3|4\n", 2, [1], delimiter="|")
        assert r.fields[1] == ["2", "4"]


class TestValidation:
    def test_out_of_range_column(self):
        with pytest.raises(FlatFileError):
            tok(TEXT, 4, [4])

    def test_no_needed_columns(self):
        with pytest.raises(FlatFileError):
            tok(TEXT, 4, [])

    def test_short_row_raises(self):
        with pytest.raises(FlatFileError, match="fewer than"):
            tok("1,2,3\n1\n", 3, [2])

    def test_predicate_on_untokenized_column_rejected(self):
        with pytest.raises(FlatFileError):
            tok(TEXT, 4, [0], predicates={2: lambda s: True})


class TestEarlyAbort:
    def test_early_abort_skips_trailing_fields(self):
        with_abort = tok(TEXT, 4, [0], early_abort=True)
        without = tok(TEXT, 4, [0], early_abort=False)
        assert with_abort.fields == without.fields
        assert (
            with_abort.stats.fields_tokenized < without.stats.fields_tokenized
        )

    def test_full_tokenization_counts_all_fields(self):
        r = tok(TEXT, 4, [0], early_abort=False)
        assert r.stats.fields_tokenized == 12  # 3 rows x 4 fields


class TestPredicatePushdown:
    def test_rows_filtered(self):
        pred = {0: lambda s: int(s) >= 11}
        r = tok(TEXT, 4, [0, 2], predicates=pred)
        assert r.fields[0] == ["11", "12"]
        assert r.fields[2] == ["31", "32"]
        assert list(r.row_ids) == [1, 2]
        assert r.stats.rows_abandoned == 1

    def test_failed_predicate_stops_row_work(self):
        pred = {0: lambda s: False}
        r = tok(TEXT, 4, [0, 3], predicates=pred)
        assert r.stats.rows_emitted == 0
        # Only the first field of each row was tokenized.
        assert r.stats.fields_tokenized == 3

    def test_predicate_on_second_needed_column(self):
        pred = {2: lambda s: int(s) > 31}
        r = tok(TEXT, 4, [0, 2], predicates=pred)
        assert r.fields[0] == ["12"]
        assert list(r.row_ids) == [2]

    def test_all_rows_pass(self):
        pred = {0: lambda s: True}
        r = tok(TEXT, 4, [0], predicates=pred)
        assert r.stats.rows_emitted == 3
        assert r.stats.rows_abandoned == 0


class TestPositionalMapIntegration:
    def test_learning_row_count_and_field_offsets(self):
        pmap = PositionalMap()
        tok(TEXT, 4, [1], positional_map=pmap)
        assert pmap.nrows == 3
        assert pmap.knows_column(1)
        assert list(pmap.slices_for(1)[0]) == [3, 15, 27]

    def test_offsets_point_at_field_starts(self):
        pmap = PositionalMap()
        tok(TEXT, 4, [2], positional_map=pmap)
        for row, off in enumerate(pmap.slices_for(2)[0]):
            assert TEXT[off : off + 2] == f"3{row}"

    def test_exploiting_map_reduces_scanning(self):
        pmap = PositionalMap()
        first = tok(TEXT, 4, [2], positional_map=pmap)
        second = tok(TEXT, 4, [3], positional_map=pmap)
        blind = tok(TEXT, 4, [3])
        assert second.fields[3] == blind.fields[3]
        assert second.stats.fields_tokenized < blind.stats.fields_tokenized

    def test_direct_jump_when_column_known(self):
        pmap = PositionalMap()
        tok(TEXT, 4, [2], positional_map=pmap)
        again = tok(TEXT, 4, [2], positional_map=pmap)
        assert again.fields[2] == ["30", "31", "32"]
        # Direct jumps: one field tokenized per row, nothing skipped over.
        assert again.stats.fields_tokenized == 3

    def test_incomplete_offsets_not_recorded_under_pushdown(self):
        pmap = PositionalMap()
        pred = {0: lambda s: s == "11"}
        tok(TEXT, 4, [0, 2], predicates=pred, positional_map=pmap)
        # The framing located column 2 in every row, so it is recorded
        # whole, abandoned rows included: never for qualifying rows only.
        assert pmap.knows_column(2)
        starts, ends = pmap.slices_for(2)
        assert [TEXT[s:e] for s, e in zip(starts, ends)] == ["30", "31", "32"]


class TestFieldEndLearning:
    def test_ends_recorded_with_starts(self):
        pmap = PositionalMap()
        tok(TEXT, 4, [1], positional_map=pmap)
        assert pmap.knows_column(1)
        starts, ends = pmap.slices_for(1)
        assert [TEXT[s:e] for s, e in zip(starts, ends)] == ["20", "21", "22"]

    def test_last_column_end_is_row_end(self):
        pmap = PositionalMap()
        tok("1,2\n3,45\n", 2, [1], positional_map=pmap)
        starts, ends = pmap.slices_for(1)
        assert ["1,2\n3,45\n"[s:e] for s, e in zip(starts, ends)] == ["2", "45"]

    def test_crlf_end_excludes_carriage_return(self):
        text = "1,2\r\n3,4\r\n"
        pmap = PositionalMap()
        tok(text, 2, [1], positional_map=pmap)
        starts, ends = pmap.slices_for(1)
        assert [text[s:e] for s, e in zip(starts, ends)] == ["2", "4"]

    def test_scanned_over_columns_learned_too(self):
        """Columns tokenized merely to reach a needed one are remembered,
        and so are the columns right of it: the framing located them."""
        pmap = PositionalMap()
        tok(TEXT, 4, [2], positional_map=pmap)
        assert all(pmap.knows_column(c) for c in range(4))
        starts, ends = pmap.slices_for(1)
        assert [TEXT[s:e] for s, e in zip(starts, ends)] == ["20", "21", "22"]
        starts, ends = pmap.slices_for(3)
        assert [TEXT[s:e] for s, e in zip(starts, ends)] == ["40", "41", "42"]


class TestGatherFields:
    def test_simple_gather(self):
        buf = b"10,20,30"
        out = gather_fields(buf, np.array([0, 3, 6]), np.array([2, 2, 2]))
        assert field_texts(out, ascii_input=True) == ["10", "20", "30"]

    def test_ragged_lengths(self):
        buf = b"7,1234,x"
        out = gather_fields(buf, np.array([0, 2, 7]), np.array([1, 4, 1]))
        assert field_texts(out, ascii_input=True) == ["7", "1234", "x"]

    def test_zero_length_fields(self):
        out = gather_fields(b"a,,b", np.array([0, 2, 3]), np.array([1, 0, 1]))
        assert field_texts(out, ascii_input=True) == ["a", "", "b"]

    def test_all_empty(self):
        out = gather_fields(b"xy", np.array([0, 1]), np.array([0, 0]))
        assert field_texts(out, ascii_input=True) == ["", ""]

    def test_empty_input(self):
        empty = np.empty(0, dtype=np.int64)
        assert field_texts(gather_fields(b"", empty, empty), ascii_input=True) == []

    def test_wide_field_fallback_path(self):
        wide = "9" * 1000
        buf = f"a,{wide},b".encode()
        out = gather_fields(
            buf, np.array([0, 2, 1003]), np.array([1, 1000, 1])
        )
        assert field_texts(out, ascii_input=True) == ["a", wide, "b"]

    def test_negative_length_rejected(self):
        with pytest.raises(FlatFileError):
            gather_fields(b"ab", np.array([0]), np.array([-1]))

    def test_matches_python_slicing(self):
        rng = np.random.default_rng(7)
        buf = bytes(rng.integers(48, 58, size=200, dtype=np.uint8))
        starts = rng.integers(0, 150, size=50, dtype=np.int64)
        lengths = rng.integers(0, 30, size=50, dtype=np.int64)
        expected = [
            buf[s : s + l].decode() for s, l in zip(starts.tolist(), lengths.tolist())
        ]
        out = gather_fields(buf, starts, lengths)
        assert field_texts(out, ascii_input=True) == expected


class TestSplitRows:
    def test_reference_split(self):
        assert split_rows("1,2\n3,4\n") == [["1", "2"], ["3", "4"]]


@st.composite
def csv_tables(draw):
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 25))
    field = st.one_of(
        st.integers(-(10**6), 10**6).map(str),
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F
            ),
            min_size=1,
            max_size=8,
        ),
    )
    rows = draw(
        st.lists(
            st.lists(field, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return ncols, rows


class TestAgainstStdlibCsv:
    @settings(max_examples=60, deadline=None)
    @given(csv_tables(), st.data())
    def test_matches_csv_module(self, table, data):
        """The tokenizer agrees with the stdlib csv reader on every column."""
        ncols, rows = table
        buf = io.StringIO()
        writer = stdlib_csv.writer(buf, quoting=stdlib_csv.QUOTE_NONE, lineterminator="\n")
        writer.writerows(rows)
        text = buf.getvalue()
        needed = data.draw(
            st.lists(st.integers(0, ncols - 1), min_size=1, max_size=ncols, unique=True)
        )
        result = tok(text, ncols, needed)
        expected = list(stdlib_csv.reader(io.StringIO(text)))
        for col in needed:
            assert result.fields[col] == [row[col] for row in expected]

    @settings(max_examples=30, deadline=None)
    @given(csv_tables())
    def test_early_abort_equivalence(self, table):
        """Early abort changes cost, never results."""
        ncols, rows = table
        text = "\n".join(",".join(r) for r in rows) + "\n"
        needed = [0] if ncols == 1 else [0, ncols // 2]
        a = tok(text, ncols, needed, early_abort=True)
        b = tok(text, ncols, needed, early_abort=False)
        assert a.fields == b.fields
        assert list(a.row_ids) == list(b.row_ids)

    @settings(max_examples=30, deadline=None)
    @given(csv_tables())
    def test_positional_map_never_lies(self, table):
        """DESIGN invariant 5: every recorded offset points at the exact
        first byte of its field, and the field read from that offset equals
        the tokenizer's output."""
        ncols, rows = table
        text = "\n".join(",".join(r) for r in rows) + "\n"
        pmap = PositionalMap()
        result = tok(
            text, ncols, list(range(ncols)), positional_map=pmap
        )
        for col in range(ncols):
            assert pmap.knows_column(col)
            offsets = pmap.slices_for(col)[0]
            for row_idx, off in enumerate(offsets):
                expected = result.fields[col][row_idx]
                assert text[off : off + len(expected)] == expected
                if off > 0:  # field starts right after a delimiter/newline
                    assert text[off - 1] in ",\n"

    @settings(max_examples=30, deadline=None)
    @given(csv_tables())
    def test_positional_map_equivalence(self, table):
        """Map-assisted tokenization returns identical fields."""
        ncols, rows = table
        text = "\n".join(",".join(r) for r in rows) + "\n"
        pmap = PositionalMap()
        tok(text, ncols, list(range(ncols)), positional_map=pmap)
        for col in range(ncols):
            with_map = tok(text, ncols, [col], positional_map=pmap)
            without = tok(text, ncols, [col])
            assert with_map.fields[col] == without.fields[col]
