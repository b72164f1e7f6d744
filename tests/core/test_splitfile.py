"""Unit tests for the split-file (file cracking) catalog."""

import numpy as np
import pytest

from repro import CSVEngine, EngineConfig, NoDBEngine
from repro.core.splitfile import SplitFileCatalog
from repro.flatfile.dialects import as_text
from repro.flatfile.files import FlatFile
from repro.flatfile.tokenizer import FieldSpans
from repro.flatfile.writer import write_csv


@pytest.fixture
def make_catalog():
    """Build split catalogs over a path; their directories go at teardown."""
    made = []

    def make(path, ncols, skip_rows=0):
        made.append(SplitFileCatalog(FlatFile(path), ncols, skip_rows=skip_rows))
        return made[-1]

    yield make
    for catalog in made:
        catalog.destroy()


@pytest.fixture
def setup(tmp_path, make_catalog):
    cols = [np.arange(i * 100, i * 100 + 20, dtype=np.int64) for i in range(5)]
    path = write_csv(tmp_path / "src.csv", cols)
    return make_catalog(path, 5), cols


def expected_text(col):
    return [str(v) for v in col]


def texts(values):
    """Fetched fields as ``str`` (a split of ASCII text yields ``S`` bytes,
    a single file the spans of its lines)."""
    if isinstance(values, FieldSpans):
        values = values.values()
    return list(as_text(values))


class TestFetch:
    def test_fetch_from_original(self, setup):
        catalog, cols = setup
        result = catalog.fetch_columns([1])
        assert texts(result.fields[1]) == expected_text(cols[1])

    def test_fetch_creates_singles_and_remainder(self, setup):
        catalog, cols = setup
        catalog.fetch_columns([1])
        assert catalog.homes[0].kind == "single"
        assert catalog.homes[1].kind == "single"
        for c in (2, 3, 4):
            assert catalog.homes[c].kind == "remainder"
        # The three tail columns share one remainder file.
        assert catalog.homes[2].file is catalog.homes[3].file

    def test_fetch_from_single_exact_bytes(self, setup):
        catalog, cols = setup
        catalog.fetch_columns([0])
        single = catalog.homes[0].file
        before = single.stats.bytes_read
        result = catalog.fetch_columns([0])
        assert texts(result.fields[0]) == expected_text(cols[0])
        assert single.stats.bytes_read - before == single.size_bytes()

    def test_fetch_from_remainder_resplits(self, setup):
        catalog, cols = setup
        catalog.fetch_columns([0])  # singles: 0; remainder: 1..4
        result = catalog.fetch_columns([2])
        assert texts(result.fields[2]) == expected_text(cols[2])
        assert catalog.homes[1].kind == "single"
        assert catalog.homes[2].kind == "single"
        assert catalog.homes[3].kind == "remainder"

    def test_fetch_multiple_mixed_homes(self, setup):
        catalog, cols = setup
        catalog.fetch_columns([1])
        result = catalog.fetch_columns([0, 3])
        assert texts(result.fields[0]) == expected_text(cols[0])
        assert texts(result.fields[3]) == expected_text(cols[3])

    def test_last_column(self, setup):
        catalog, cols = setup
        result = catalog.fetch_columns([4])
        assert texts(result.fields[4]) == expected_text(cols[4])
        assert all(h.kind == "single" for h in catalog.homes.values())

    def test_out_of_range(self, setup):
        catalog, _ = setup
        from repro.errors import FlatFileError

        with pytest.raises(FlatFileError):
            catalog.fetch_columns([7])


class TestReassembly:
    def test_all_columns_recoverable_after_any_split_sequence(self, setup):
        catalog, cols = setup
        catalog.fetch_columns([3])
        catalog.fetch_columns([4])
        catalog.fetch_columns([0, 2])
        for i, col in enumerate(cols):
            got = catalog.fetch_columns([i]).fields[i]
            assert texts(got) == expected_text(col), f"column {i} corrupted by splitting"


class TestAccounting:
    def test_files_written_counted(self, setup):
        catalog, _ = setup
        r = catalog.fetch_columns([1])
        assert r.files_written == 3  # col0, col1 singles + remainder
        assert catalog.files_written == 3

    def test_bytes_on_disk_grows(self, setup):
        catalog, _ = setup
        assert catalog.bytes_on_disk() == 0
        catalog.fetch_columns([2])
        assert catalog.bytes_on_disk() > 0

    def test_io_bytes_read_excludes_original(self, setup):
        catalog, _ = setup
        catalog.fetch_columns([1])
        assert catalog.io_bytes_read() == 0  # only the original was read
        catalog.fetch_columns([1])
        assert catalog.io_bytes_read() > 0  # now a single file was read


class TestDirectory:
    def test_each_catalog_owns_a_private_directory(self, setup, make_catalog):
        catalog, _ = setup
        catalog.fetch_columns([1])
        other = make_catalog(catalog.source.path, 5)
        other.fetch_columns([1])
        assert catalog.directory != other.directory
        names = sorted(p.name for p in catalog.directory.iterdir())
        assert names == ["col0.txt", "col1.txt", "rem0.txt"]

    def test_destroy_removes_the_directory(self, setup):
        catalog, _ = setup
        catalog.fetch_columns([4])
        assert any(catalog.directory.iterdir())
        catalog.destroy()
        assert not catalog.directory.exists()
        assert catalog.source.path.exists()


class TestHeaderedSource:
    def test_skip_rows_respected(self, tmp_path, make_catalog):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        catalog = make_catalog(path, 2, skip_rows=1)
        assert texts(catalog.fetch_columns([1]).fields[1]) == ["2", "4"]
        # Singles must not contain the header.
        assert texts(catalog.fetch_columns([1]).fields[1]) == ["2", "4"]


class TestSingleFileReads:
    def test_non_ascii_and_ascii_singles_read_back_exactly(
        self, tmp_path, make_catalog
    ):
        path = tmp_path / "u.csv"
        path.write_text("1,é x,a\n2,b,ü\n3,d,c\n", encoding="utf-8")
        catalog = make_catalog(path, 3)
        first = catalog.fetch_columns([1, 2])
        assert texts(first.fields[1]) == ["é x", "b", "d"]
        # Now from the single files written by that split.
        again = catalog.fetch_columns([0, 1, 2])
        assert catalog.homes[1].kind == "single"
        assert texts(again.fields[0]) == ["1", "2", "3"]
        assert texts(again.fields[1]) == ["é x", "b", "d"]
        assert texts(again.fields[2]) == ["a", "ü", "c"]
        # Characters scanned, not bytes (which would be 9 + 6 + 7):
        # "é x\nb\nd\n" + "1\n2\n3\n" + "a\nü\nc\n".
        assert again.stats.chars_scanned == 8 + 6 + 6

    @pytest.mark.parametrize(
        "order",
        # In the second order, needing the middle column tokenizes the
        # last one too: a one-column remainder would hold an empty value
        # as a blank line, which the tokenizer skips.
        [[[1, 2], [1, 2]], [[0], [1], [2]]],
    )
    def test_empty_values_survive_their_single_file(
        self, tmp_path, make_catalog, order
    ):
        path = tmp_path / "e.csv"
        path.write_text("1,,x\n2,b,\n3,,z\n", encoding="utf-8")
        catalog = make_catalog(path, 3)
        want = [["1", "2", "3"], ["", "b", ""], ["x", "", "z"]]
        for cols in order:
            got = catalog.fetch_columns(cols)
            for col in cols:
                assert texts(got.fields[col]) == want[col]
        assert all(catalog.homes[col].kind == "single" for col in order[-1])
        assert got.stats.rows_scanned == 3 * len(order[-1])

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("header", [True, False])
    def test_empty_and_ragged_last_fields_match_oracle(
        self, tmp_path, newline, header
    ):
        names = ("a", "b", "c") if header else ("a1", "a2", "a3")
        # Past the inference sample, a ragged row's extra field must be
        # dropped as the tokenizer drops it.
        rows = (["a,b,c"] if header else []) + ["1,2,"] + ["4,5,6"] * 130
        rows.append("7,8,9,10")
        path = tmp_path / "e.csv"
        path.write_bytes((newline.join(rows) + newline).encode())
        oracle = CSVEngine()
        oracle.attach("t", path)
        a, b, c = names
        with NoDBEngine(EngineConfig(policy="splitfiles")) as engine:
            engine.attach("t", path)
            for sql in (
                f"select sum({a}) from t",
                f"select sum({b}) from t",
                f"select count(*), min({c}), max({c}) from t",
            ):
                assert engine.query(sql).rows() == oracle.query(sql).rows()

    def test_empty_string_answer_matches_oracle(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(
            "id,name,tag\n1,,x\n2,bob,\n3,,z\n4,dan,w\n", encoding="utf-8"
        )
        sql = "select id, name from t where name = '' order by id"
        oracle = CSVEngine()
        oracle.attach("t", path)
        # A one-byte budget keeps nothing loaded: every query re-reads.
        config = EngineConfig(policy="splitfiles", memory_budget_bytes=1)
        with NoDBEngine(config) as engine:
            engine.attach("t", path)
            first = engine.query(sql).rows()
            again = engine.query(sql).rows()
            assert engine.stats.last().file_bytes_read > 0
        assert first == again == oracle.query(sql).rows() == [(1, ""), (3, "")]

    def test_sniffed_delimiter_reaches_the_remainder(self, tmp_path):
        # Sniffed as '|'-delimited; the last column holds commas, so a
        # remainder read with the default ',' would cut its values short.
        rows = [f"{i}|{i * 2}|{i * 3}|v{i}" + ",w" * (i % 3) for i in range(200)]
        path = tmp_path / "p.txt"
        path.write_text("\n".join(rows) + "\n")
        oracle = CSVEngine()
        oracle.attach("t", path, format="auto")
        with NoDBEngine(EngineConfig(policy="splitfiles")) as engine:
            engine.attach("t", path, format="auto")
            for sql in (
                "select sum(a1) from t",
                "select a4 from t where a1 < 3 order by a1",
                "select sum(a3), max(a4) from t",
            ):
                assert engine.query(sql).rows() == oracle.query(sql).rows()
            # a2..a4 were read back from one '|'-delimited remainder.
            split = engine.catalog.get("t").split_catalog
            assert split.files_written == 5
