"""Format adapters and the dialect sniffer (unit level).

The differential oracle in ``tests/oracle`` checks whole-engine
equivalence; here each adapter's framing/tokenize/decode/encode contract
and every sniffer edge case is pinned down directly.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import FlatFileError, FormatDetectionError, SchemaInferenceError
from repro.flatfile.dialects import (
    DelimitedAdapter,
    FixedWidthAdapter,
    JsonLinesAdapter,
    QuotedCsvAdapter,
    TsvAdapter,
    make_adapter,
    sniff_format,
)
from repro.flatfile.files import FlatFile
from repro.flatfile.tokenizer import tokenize_dialect


def frame(adapter, text):
    starts, ends = adapter.row_bounds(text)
    return [text[int(s) : int(e)] for s, e in zip(starts, ends)]


class TestDelimitedAdapter:
    def test_round_trip(self):
        a = DelimitedAdapter(",")
        row = a.encode_row(["1", "x", "2.5"])
        assert row == "1,x,2.5"
        assert a.row_values(row) == ["1", "x", "2.5"]

    def test_spans_cover_fields(self):
        a = DelimitedAdapter(",")
        row = "ab,c,,def"
        spans = list(a.iter_fields(row))
        assert [row[s:e] for s, e, _ in spans] == ["ab", "c", "", "def"]

    def test_encode_rejects_delimiter_in_value(self):
        with pytest.raises(FlatFileError, match="cannot represent"):
            DelimitedAdapter(",").encode_row(["a,b"])

    def test_encode_rejects_newline_in_value(self):
        with pytest.raises(FlatFileError, match="cannot represent"):
            DelimitedAdapter(",").encode_row(["a\nb"])
        with pytest.raises(FlatFileError, match="cannot represent"):
            DelimitedAdapter(",").encode_row(["a\rb"])

    def test_bad_delimiter(self):
        with pytest.raises(FlatFileError, match="delimiter"):
            DelimitedAdapter(",,")


class TestQuotedCsvAdapter:
    def test_decode_quoting_and_doubling(self):
        a = QuotedCsvAdapter()
        assert a.row_values('"a,b",2,"he said ""hi"""') == [
            "a,b",
            "2",
            'he said "hi"',
        ]

    def test_embedded_newline_framing(self):
        a = QuotedCsvAdapter()
        text = '1,"line1\nline2"\n2,simple\n'
        rows = frame(a, text)
        assert rows == ['1,"line1\nline2"', "2,simple"]
        assert a.row_values(rows[0]) == ["1", "line1\nline2"]

    def test_crlf_outside_quotes_trimmed(self):
        a = QuotedCsvAdapter()
        assert frame(a, "1,2\r\n3,4\r\n") == ["1,2", "3,4"]

    def test_cr_inside_quotes_kept(self):
        a = QuotedCsvAdapter()
        rows = frame(a, '1,"a\r\nb"\n')
        assert a.row_values(rows[0]) == ["1", "a\r\nb"]

    def test_encode_round_trip(self):
        a = QuotedCsvAdapter()
        values = ["a,b", 'q"x', "plain", "nl\nnl", ""]
        assert a.row_values(a.encode_row(values)) == values

    def test_unterminated_quote_raises(self):
        a = QuotedCsvAdapter()
        with pytest.raises(FlatFileError, match="unterminated"):
            a.row_bounds('1,"oops\n')
        with pytest.raises(FlatFileError, match="unterminated"):
            list(a.iter_fields('"oops'))

    def test_garbage_after_closing_quote_raises(self):
        with pytest.raises(FlatFileError, match="after closing quote"):
            list(QuotedCsvAdapter().iter_fields('"ok"x,2'))

    def test_spans_include_quotes(self):
        a = QuotedCsvAdapter()
        row = '"a,b",2'
        (s0, e0, raw0), (s1, e1, raw1) = a.iter_fields(row)
        assert row[s0:e0] == '"a,b"' == raw0
        assert a.decode_field(raw0) == "a,b"
        assert row[s1:e1] == "2"


class TestTsvAdapter:
    def test_escape_round_trip(self):
        a = TsvAdapter()
        values = ["a\tb", "c\\d", "e\nf", "g\rh", "plain"]
        assert a.row_values(a.encode_row(values)) == values

    def test_raw_tabs_always_separate(self):
        a = TsvAdapter()
        row = a.encode_row(["x\ty", "z"])
        assert row.count("\t") == 1  # the separator; the literal tab is escaped

    def test_unknown_escape_is_literal(self):
        assert TsvAdapter().decode_field("a\\xb") == "a\\xb"


class TestJsonLinesAdapter:
    def test_object_rows_fix_column_order(self):
        a = JsonLinesAdapter()
        assert a.row_values('{"b": 1, "a": "x"}') == ["1", "x"]
        assert a.embedded_header == ["b", "a"]
        # later rows may permute keys; order stays the first row's
        assert a.row_values('{"a": "y", "b": 2}') == ["2", "y"]

    def test_scalar_rendering(self):
        a = JsonLinesAdapter()
        assert a.row_values('[1, 2.5, "s", true, null]') == [
            "1",
            "2.5",
            "s",
            "true",
            "",
        ]

    def test_mismatched_keys_raise(self):
        a = JsonLinesAdapter()
        a.row_values('{"a": 1}')
        with pytest.raises(FlatFileError, match="keys"):
            a.row_values('{"z": 1}')

    def test_nested_value_raises(self):
        with pytest.raises(FlatFileError, match="nested"):
            JsonLinesAdapter().row_values('{"a": [1, 2]}')

    def test_invalid_json_raises(self):
        with pytest.raises(FlatFileError, match="invalid JSON"):
            JsonLinesAdapter().row_values("{oops")

    def test_encode_round_trip_is_exact_text(self):
        a = JsonLinesAdapter(columns=("x", "y"))
        row = a.encode_row(["1e5", "plain"])
        # values are written as JSON strings so raw text round-trips
        assert a.row_values(row) == ["1e5", "plain"]

    def test_reset_forgets_columns(self):
        a = JsonLinesAdapter()
        a.row_values('{"a": 1}')
        a.reset()
        assert a.columns is None


class TestFixedWidthAdapter:
    def test_round_trip(self):
        a = FixedWidthAdapter((4, 3))
        row = a.encode_row(["ab", "c"])
        assert row == "ab  c  "
        assert a.row_values(row) == ["ab", "c"]

    def test_wrong_row_length_raises(self):
        with pytest.raises(FlatFileError, match="characters"):
            FixedWidthAdapter((4, 3)).row_values("short")

    def test_too_wide_value_raises(self):
        with pytest.raises(FlatFileError, match="wider"):
            FixedWidthAdapter((2,)).encode_row(["abc"])

    def test_trailing_spaces_unrepresentable(self):
        with pytest.raises(FlatFileError, match="trailing spaces"):
            FixedWidthAdapter((5,)).encode_row(["a "])

    def test_line_break_unrepresentable(self):
        with pytest.raises(FlatFileError, match="line break"):
            FixedWidthAdapter((5,)).encode_row(["a\nb"])

    def test_bad_widths(self):
        with pytest.raises(FlatFileError, match="positive"):
            FixedWidthAdapter((0, 3))


class TestMakeAdapter:
    def test_default_is_plain(self):
        assert isinstance(make_adapter(None, ";"), DelimitedAdapter)
        assert make_adapter(None, ";").delimiter == ";"

    def test_auto_defers(self):
        assert make_adapter("auto") is None

    def test_fixed_width_needs_widths(self):
        with pytest.raises(FlatFileError, match="widths"):
            make_adapter("fixed-width")

    def test_unknown_format(self):
        with pytest.raises(FlatFileError, match="unknown format"):
            make_adapter("parquet")


class TestSniffer:
    def test_plain_csv(self):
        a = sniff_format("1,2,3\n4,5,6\n")
        assert isinstance(a, DelimitedAdapter) and a.delimiter == ","

    def test_semicolon_csv(self):
        a = sniff_format("1;2\n3;4\n")
        assert isinstance(a, DelimitedAdapter) and a.delimiter == ";"

    def test_quoted_csv(self):
        assert isinstance(sniff_format('"a,b",2\nc,3\n'), QuotedCsvAdapter)

    def test_tab_means_tsv(self):
        assert isinstance(sniff_format("a\tb\nc\td\n"), TsvAdapter)

    def test_jsonl(self):
        assert isinstance(sniff_format('{"a": 1}\n{"a": 2}\n'), JsonLinesAdapter)

    def test_bare_numbers_are_not_jsonl(self):
        a = sniff_format("1\n2\n3\n")
        assert isinstance(a, DelimitedAdapter)

    def test_fixed_width(self):
        a = sniff_format("ab   12\ncd   34\n")
        assert isinstance(a, FixedWidthAdapter)
        assert sum(a.widths) == 7

    def test_empty_file_refuses_naming_fallback(self):
        with pytest.raises(FormatDetectionError, match="--format/--delimiter"):
            sniff_format("")

    def test_blank_lines_only_refuses(self):
        with pytest.raises(FormatDetectionError, match="empty"):
            sniff_format("\n\n\n")

    def test_ambiguous_delimiters_refuse_naming_fallback(self):
        with pytest.raises(FormatDetectionError) as err:
            sniff_format("a,b;c\nd,e;f\n")
        assert "--delimiter" in str(err.value)
        assert "--format" in str(err.value)

    def test_header_only_file(self):
        a = sniff_format("id,name,qty\n")
        assert isinstance(a, DelimitedAdapter) and a.delimiter == ","

    def test_single_column_file(self):
        a = sniff_format("alpha\nbeta\ngamma\n")
        assert isinstance(a, DelimitedAdapter)

    def test_stray_mid_field_quote_stays_plain(self):
        # '5"2' is data, not quoting; misreading it as quoted-csv would
        # swallow the newline and collapse the two rows into one
        a = sniff_format('1,5"2\n2,6"1\n')
        assert isinstance(a, DelimitedAdapter) and a.delimiter == ","
        assert a.row_values('1,5"2') == ["1", '5"2']

    def test_field_start_quotes_mean_quoted(self):
        assert isinstance(sniff_format('1,"a b"\n2,"c d"\n'), QuotedCsvAdapter)

    def test_single_column_quoted_lines(self):
        a = sniff_format('"a b"\n"c d"\n"e f"\n')
        assert isinstance(a, QuotedCsvAdapter)
        assert a.row_values('"a b"') == ["a b"]

    def test_stray_quote_framing_does_not_merge_rows(self):
        # quoted-csv framing uses the same field-start rule as field
        # tokenization: '5"2' is data, so the newline still ends the row
        a = QuotedCsvAdapter()
        assert frame(a, '"a",5"2\n"b",3\n') == ['"a",5"2', '"b",3']
        assert frame(a, '"a",5"2\n"b\nc",3\n') == ['"a",5"2', '"b\nc",3']

    def test_inconsistent_counts_refuse(self):
        # a comma on some lines only is no delimiter — free text must be
        # refused, not guessed at (splitting some rows and not others)
        with pytest.raises(FormatDetectionError, match="no consistent delimiter"):
            sniff_format("one, two words\nplain line here\n")


class TestAutoAttach:
    def test_lazy_sniff_on_flatfile(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("a\tb\n1\t2\n")
        f = FlatFile(p, format="auto")
        assert f.stats.bytes_read == 0  # attach-time: no I/O yet
        assert isinstance(f.adapter, TsvAdapter)
        assert f.stats.bytes_read > 0

    def test_auto_reset_resniffs(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("1,2\n3,4\n")
        f = FlatFile(p, format="auto")
        assert isinstance(f.adapter, DelimitedAdapter)
        p.write_text('{"a": 1}\n{"a": 2}\n')
        f.reset_format_state()
        assert isinstance(f.adapter, JsonLinesAdapter)

    def test_explicit_adapter_not_resniffed(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text('{"a": 1}\n')
        f = FlatFile(p, format="jsonl")
        f.adapter.row_values('{"a": 1}')
        f.reset_format_state()
        assert isinstance(f.adapter, JsonLinesAdapter)
        assert f.adapter.columns is None  # learned state forgotten

    def test_quoted_csv_on_the_plain_default_names_the_fix(self, tmp_path):
        p = tmp_path / "q.csv"
        rows = [f'"alpha, {i}",{i},{2 * i}' for i in range(50)]
        p.write_text("name,x,y\n" + "\n".join(rows) + "\n")
        sql = "select count(*), sum(y) from t"
        with repro.connect() as conn:
            conn.attach("t", p)
            with pytest.raises(SchemaInferenceError) as info:
                conn.execute(sql)
        message = str(info.value)
        assert "header has 3 names but rows have 4 fields" in message
        assert 'format="auto"' in message and 'format="quoted-csv"' in message
        with repro.connect() as conn:
            conn.attach("t", p, format="auto")
            assert conn.execute(sql).rows() == [(50, 2450)]


class TestTokenizeDialect:
    def test_generic_path_matches_fast_path(self):
        text = "1,2,3\n4,5,6\n7,8,9\n"
        fast = tokenize_dialect(text, DelimitedAdapter(","), ncols=3, needed=[1])
        slow = tokenize_dialect(text, QuotedCsvAdapter(","), ncols=3, needed=[1])
        assert fast.fields[1] == slow.fields[1] == ["2", "5", "8"]
        assert np.array_equal(fast.row_ids, slow.row_ids)

    def test_ragged_row_raises(self):
        with pytest.raises(FlatFileError, match="fewer than"):
            tokenize_dialect(
                "1,2\n3\n", QuotedCsvAdapter(","), ncols=2, needed=[1]
            )

    def test_short_row_past_needed_raises_like_fast_path(self):
        # 'x,y' has the needed columns but is still short of ncols=3;
        # the plain fast path raises here, so every dialect must too
        for adapter in (QuotedCsvAdapter(","), DelimitedAdapter(",")):
            with pytest.raises(FlatFileError, match="fewer than 3"):
                tokenize_dialect(
                    "a,b,c\nx,y\n", adapter, ncols=3, needed=[0, 1]
                )
        with pytest.raises(FlatFileError, match="fewer than 3"):
            tokenize_dialect(
                "[1, 2]\n", JsonLinesAdapter(), ncols=3, needed=[0, 1]
            )

    def test_pushdown_abandons_rows(self):
        res = tokenize_dialect(
            '1,"a"\n2,"b"\n3,"c"\n',
            QuotedCsvAdapter(","),
            ncols=2,
            needed=[0, 1],
            predicates={0: lambda v: int(v) != 2},
        )
        assert res.fields[1] == ["a", "c"]
        assert res.stats.rows_abandoned == 1

    def test_early_abort_skips_bad_tail(self):
        # the field after the needed one is never tokenized cold
        res = tokenize_dialect(
            "1\tx\n2\ty\n",
            TsvAdapter(),
            ncols=2,
            needed=[0],
        )
        assert res.fields[0] == ["1", "2"]

    def test_jsonl_needs_whole_row(self):
        res = tokenize_dialect(
            '{"a": 1, "b": "x"}\n{"a": 2, "b": "y"}\n',
            JsonLinesAdapter(),
            ncols=2,
            needed=[1],
        )
        assert res.fields[1] == ["x", "y"]

    @pytest.mark.parametrize(
        "adapter, text, ncols",
        [
            (QuotedCsvAdapter(","), 'id,"a, b"\n1,"x\ny"\n2,"z ""q"""\n', 2),
            (JsonLinesAdapter(), '{"a": 1, "b": "é"}\n{"a": 2, "b": "x"}\n', 2),
            (FixedWidthAdapter((3, 4)), "éa 1   \nb  22  \nc  333 \n", 2),
        ],
    )
    def test_chars_scanned_counts_each_character_once(self, adapter, text, ncols):
        # Framing reads every character; walking a field rereads none.
        for needed in ([0], [ncols - 1], list(range(ncols))):
            res = tokenize_dialect(text, adapter, ncols=ncols, needed=needed)
            assert res.stats.chars_scanned == len(text)
