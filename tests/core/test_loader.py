"""Direct unit tests for the adaptive load passes."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.core.loader import _zone_candidates, run_pass
from repro.ranges import Condition, ValueInterval
from repro.storage.catalog import Catalog


@pytest.fixture
def entry(tmp_path):
    path = tmp_path / "t.csv"
    rows = [f"{i},{i * 2},{i * 3},{i * 4}" for i in range(100)]
    path.write_text("\n".join(rows) + "\n")
    return Catalog().attach("t", path)


CONFIG = EngineConfig()


class TestFullLoad:
    def test_loads_everything(self, entry):
        result = run_pass(entry, entry.ensure_schema().names, None, CONFIG, parse_all_rows=True)
        assert result.nrows == 100
        assert set(result.columns) == {"a1", "a2", "a3", "a4"}
        assert result.is_full_rows
        assert result.columns["a3"].tolist() == [i * 3 for i in range(100)]
        assert result.parse.values_parsed == 400


class TestColumnLoad:
    def test_loads_requested_only(self, entry):
        result = run_pass(entry, ["a2", "a4"], None, CONFIG, parse_all_rows=True)
        assert set(result.columns) == {"a2", "a4"}
        assert result.is_full_rows
        assert result.parse.values_parsed == 200

    def test_tokenizes_prefix_only(self, entry):
        result = run_pass(entry, ["a1"], None, CONFIG, parse_all_rows=True)
        # Early abort: one field per row.
        assert result.tokenizer.fields_tokenized == 100


class TestPartialLoad:
    def test_pushdown_filters_rows(self, entry):
        condition = Condition([("a1", ValueInterval(10, 20))])
        result = run_pass(entry, ["a1", "a3"], condition, CONFIG, parse_all_rows=False)
        assert result.row_ids.tolist() == list(range(11, 20))
        assert result.columns["a3"].tolist() == [i * 3 for i in range(11, 20)]
        assert not result.is_full_rows

    def test_condition_on_later_column(self, entry):
        condition = Condition([("a3", ValueInterval(30, 60))])
        result = run_pass(entry, ["a1", "a3"], condition, CONFIG, parse_all_rows=False)
        assert result.columns["a1"].tolist() == [
            i for i in range(100) if 30 < i * 3 < 60
        ]

    def test_trivial_condition_loads_all(self, entry):
        result = run_pass(entry, ["a1"], Condition(), CONFIG, parse_all_rows=False)
        assert result.is_full_rows

    def test_pushdown_disabled_by_config(self, entry):
        cfg = EngineConfig(predicate_pushdown=False)
        condition = Condition([("a1", ValueInterval(10, 20))])
        result = run_pass(entry, ["a1"], condition, cfg, parse_all_rows=False)
        assert result.is_full_rows  # nothing filtered during load


class TestExternalPass:
    def test_tokenizes_whole_rows(self, entry):
        result = run_pass(
            entry, ["a1"], None, CONFIG, parse_all_rows=True, tokenize_everything=True
        )
        assert result.tokenizer.fields_tokenized == 400  # all fields
        assert result.parse.values_parsed == 100  # but converts only a1

    def test_row_count_discovered(self, entry):
        result = run_pass(
            entry, ["a2"], None, CONFIG, parse_all_rows=True, tokenize_everything=True
        )
        assert result.nrows == 100


class TestHeaderHandling:
    def test_header_skipped_in_all_passes(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n1,10\n2,20\n3,30\n")
        entry = Catalog().attach("h", path)
        full = run_pass(entry, entry.ensure_schema().names, None, CONFIG, parse_all_rows=True)
        assert full.nrows == 3
        assert full.columns["x"].tolist() == [1, 2, 3]
        partial = run_pass(
            entry,
            ["y"],
            Condition([("y", ValueInterval(15, None))]),
            CONFIG,
            parse_all_rows=False,
        )
        assert partial.columns["y"].tolist() == [20, 30]


@st.composite
def _zone_keeps(draw):
    """A row count, a zone size and per-column keep masks, some of them
    declining (``None``) or keeping every zone."""
    zone_rows = draw(st.integers(1, 9))
    nzones = draw(st.integers(1, 12))
    nrows = draw(st.integers((nzones - 1) * zone_rows + 1, nzones * zone_rows))
    mask = st.lists(st.booleans(), min_size=nzones, max_size=nzones)
    keeps = draw(
        st.lists(
            st.one_of(st.none(), st.just([True] * nzones), mask), min_size=1, max_size=3
        )
    )
    return nrows, zone_rows, keeps


class TestZoneCandidates:
    @settings(max_examples=300, deadline=None)
    @given(_zone_keeps())
    def test_rows_of_surviving_zones_match_the_row_mask(self, drawn):
        """Rows built zone by zone equal the rows a per-row gather of the
        combined keep masks leaves, and the skip count sums the columns."""
        nrows, zone_rows, keeps = drawn
        masks = [None if k is None else np.array(k) for k in keeps]
        zmi = SimpleNamespace(
            nrows=nrows,
            zone_rows=zone_rows,
            zone_keep_mask=lambda col, interval: masks[col],
        )
        entry = SimpleNamespace(zone_maps=zmi)
        intervals = {col: ValueInterval(0, None) for col in range(len(masks))}
        rows, skips = _zone_candidates(entry, intervals, nrows, CONFIG)

        expected = np.arange(nrows, dtype=np.int64)
        expected_skips = 0
        for keep in masks:
            if keep is None or keep.all():
                continue
            expected = expected[keep[expected // zone_rows]]
            expected_skips += int(len(keep) - keep.sum())
        assert rows.dtype == np.int64
        assert rows.tolist() == expected.tolist()
        assert skips == expected_skips

    def test_no_zone_maps_reads_every_row(self):
        entry = SimpleNamespace(zone_maps=None)
        rows, skips = _zone_candidates(entry, {0: ValueInterval(0, None)}, 7, CONFIG)
        assert rows.tolist() == list(range(7))
        assert skips == 0
