"""Per-policy behaviour tests: what gets loaded, kept, reused.

These tests pin down the *mechanisms* behind the paper's curves — which
queries touch the file, how much is parsed, what the store retains — rather
than wall-clock times, which the benches cover.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import POLICIES, EngineConfig, NoDBEngine


SQL_A12 = "select sum(a1), avg(a2) from r where a1 > 100 and a1 < 260 and a2 > 150 and a2 < 310"
SQL_A34 = "select sum(a3), avg(a4) from r where a3 > 100 and a3 < 260 and a4 > 150 and a4 < 310"
SQL_ZOOM = "select sum(a1), avg(a2) from r where a1 > 120 and a1 < 240 and a2 > 160 and a2 < 300"


class TestFullLoad:
    def test_first_query_loads_everything(self, engine_factory):
        engine = engine_factory("fullload")
        engine.query(SQL_A12)
        table = engine.catalog.get("r").table
        assert sorted(table.fully_loaded_columns()) == ["a1", "a2", "a3", "a4"]
        assert engine.stats.last().parse.values_parsed == 4 * 500

    def test_second_query_touches_nothing(self, engine_factory):
        engine = engine_factory("fullload")
        engine.query(SQL_A12)
        engine.query(SQL_A34)
        q = engine.stats.last()
        assert q.served_from_store
        assert q.file_bytes_read == 0
        assert q.parse.values_parsed == 0


class TestExternal:
    def test_every_query_reparses(self, engine_factory):
        engine = engine_factory("external")
        engine.query(SQL_A12)
        engine.query(SQL_A12)
        for q in engine.stats.queries:
            assert q.went_to_file
            assert not q.served_from_store
            assert q.file_bytes_read > 0

    def test_store_stays_empty(self, engine_factory):
        engine = engine_factory("external")
        engine.query(SQL_A12)
        table = engine.catalog.get("r").table
        assert table.loaded_columns() == []

    def test_tokenizes_whole_rows(self, engine_factory):
        engine = engine_factory("external")
        engine.query(SQL_A12)
        # 4 columns x 500 rows, all tokenized despite needing only 2.
        assert engine.stats.last().tokenizer.fields_tokenized == 2000


class TestColumnLoads:
    def test_loads_only_needed_columns(self, engine_factory):
        engine = engine_factory("column_loads")
        engine.query(SQL_A12)
        table = engine.catalog.get("r").table
        assert sorted(table.fully_loaded_columns()) == ["a1", "a2"]
        assert engine.stats.last().parse.values_parsed == 2 * 500

    def test_workload_shift_loads_increment(self, engine_factory):
        engine = engine_factory("column_loads")
        engine.query(SQL_A12)
        engine.query(SQL_A34)
        q = engine.stats.last()
        assert q.went_to_file
        assert q.parse.values_parsed == 2 * 500
        table = engine.catalog.get("r").table
        assert sorted(table.fully_loaded_columns()) == ["a1", "a2", "a3", "a4"]

    def test_repeat_is_store_served(self, engine_factory):
        engine = engine_factory("column_loads")
        engine.query(SQL_A12)
        engine.query(SQL_A12)
        assert engine.stats.last().served_from_store

    def test_never_loaded_columns_stay_out(self, engine_factory):
        engine = engine_factory("column_loads")
        engine.query("select sum(a1) from r")
        table = engine.catalog.get("r").table
        assert table.fully_loaded_columns() == ["a1"]


class TestPartialV1:
    def test_nothing_retained(self, engine_factory):
        engine = engine_factory("partial_v1")
        engine.query(SQL_A12)
        table = engine.catalog.get("r").table
        assert table.loaded_columns() == []

    def test_parses_less_than_column_load(self, engine_factory, small_columns):
        engine = engine_factory("partial_v1")
        engine.query(SQL_A12)
        parsed = engine.stats.last().parse.values_parsed
        # Pushdown parses a1 for all rows and a2 only where a1 qualifies;
        # the final materialization parses both fields of qualifying rows.
        a1, a2 = small_columns[0], small_columns[1]
        q_a1 = ((a1 > 100) & (a1 < 260)).sum()
        q_both = ((a1 > 100) & (a1 < 260) & (a2 > 150) & (a2 < 310)).sum()
        assert parsed == 500 + q_a1 + 2 * q_both
        assert parsed < 2 * 500  # strictly less than a two-column load

    def test_repeat_query_still_goes_to_file(self, engine_factory):
        engine = engine_factory("partial_v1")
        engine.query(SQL_A12)
        engine.query(SQL_A12)
        assert all(q.went_to_file for q in engine.stats.queries)

    def test_without_pushdown_parses_all_rows(self, engine_factory):
        engine = engine_factory("partial_v1", predicate_pushdown=False)
        engine.query(SQL_A12)
        assert engine.stats.last().parse.values_parsed == 2 * 500


class TestPartialV2:
    def test_fragments_retained_with_certificates(self, engine_factory):
        engine = engine_factory("partial_v2")
        engine.query(SQL_A12)
        table = engine.catalog.get("r").table
        a1 = table.columns["a1"]
        assert 0 < a1.loaded_count < 500
        assert len(a1.certificates) == 1

    def test_repeat_served_from_store(self, engine_factory):
        engine = engine_factory("partial_v2")
        engine.query(SQL_A12)
        first = engine.query(SQL_A12)
        q = engine.stats.last()
        assert q.served_from_store
        assert q.file_bytes_read == 0

    def test_zoom_in_served_from_store(self, engine_factory):
        engine = engine_factory("partial_v2")
        wide = engine.query(SQL_A12)
        narrow = engine.query(SQL_ZOOM)
        assert engine.stats.last().served_from_store

    def test_zoom_out_goes_back_to_file(self, engine_factory):
        engine = engine_factory("partial_v2")
        engine.query(SQL_ZOOM)
        engine.query(SQL_A12)  # wider than what is certified
        assert engine.stats.last().went_to_file

    def test_store_answers_match_file_answers(self, engine_factory):
        engine = engine_factory("partial_v2")
        first = engine.query(SQL_A12)
        second = engine.query(SQL_A12)
        assert first.approx_equal(second)

    def test_unconditional_query_certifies_full(self, engine_factory):
        engine = engine_factory("partial_v2")
        engine.query("select sum(a1) from r")
        engine.query("select sum(a1) from r where a1 > 3 and a1 < 9")
        assert engine.stats.last().served_from_store


    def test_string_range_over_partial_string_column(self, tmp_path):
        """A string range served from a partially loaded string column,
        whose unloaded slots hold None, answers like the oracle."""
        from repro.baselines.csv_engine import CSVEngine

        words = ["apple", "kiwi", "lime", "pear", "fig", "mango", "kale"]
        path = tmp_path / "s.csv"
        path.write_text(
            "".join(f"{i},{words[i % len(words)]}{i % 5}\n" for i in range(400))
        )
        engine = NoDBEngine(EngineConfig(policy="partial_v2"))
        engine.attach("t", path)
        engine.query("select a1, a2 from t where a1 > 100 and a1 < 300")
        a2 = engine.catalog.get("t").table.columns["a2"]
        assert 0 < a2.loaded_count < 400
        query = (
            "select a1, a2 from t "
            "where a1 > 150 and a1 < 250 and a2 >= 'k' and a2 < 'm'"
        )
        got = engine.query(query).rows()
        assert engine.stats.last().served_from_store
        oracle = CSVEngine()
        oracle.attach("t", path)
        want = oracle.query(query).rows()
        oracle.close()
        engine.close()
        assert got == want
        assert len(want) > 0


class TestSplitFiles:
    def test_first_touch_splits(self, engine_factory):
        engine = engine_factory("splitfiles")
        engine.query(SQL_A34)  # needs late columns -> splits everything
        q = engine.stats.last()
        assert q.split_files_written >= 4
        split = engine.catalog.get("r").split_catalog
        assert all(h.kind == "single" for h in split.homes.values())

    def test_later_loads_read_single_files(self, engine_factory, small_csv):
        engine = engine_factory("splitfiles")
        engine.query(SQL_A34)
        source_bytes = engine.catalog.get("r").file.stats.bytes_read
        engine.query(SQL_A12)  # a1, a2 now come from single files
        assert engine.catalog.get("r").file.stats.bytes_read == source_bytes
        q = engine.stats.last()
        assert q.went_to_file  # read split files, not the original
        assert q.rows_loaded == 1000

    def test_early_columns_split_less(self, engine_factory):
        engine = engine_factory("splitfiles")
        engine.query(SQL_A12)  # needs a1,a2: splits a1,a2 + remainder
        split = engine.catalog.get("r").split_catalog
        assert split.homes[0].kind == "single"
        assert split.homes[1].kind == "single"
        assert split.homes[2].kind == "remainder"
        assert split.homes[3].kind == "remainder"

    def test_remainder_resplit_on_demand(self, engine_factory, small_columns):
        engine = engine_factory("splitfiles")
        engine.query(SQL_A12)
        split = engine.catalog.get("r").split_catalog
        # a3 and a4 share a remainder, away from the original.
        remainder = split.homes[2].file
        assert split.homes[3].file is remainder
        assert remainder.path != split.source.path
        engine.query("select sum(a3) from r")
        assert split.homes[2].kind == "single"
        # a4 is alone in the re-split tail: one value per line, a single.
        assert split.homes[3].kind == "single"
        assert split.homes[3].file is not remainder
        got = engine.query("select sum(a4) from r").scalar()
        assert got == int(small_columns[3].sum())

    def test_split_results_match(self, engine_factory):
        a = engine_factory("splitfiles")
        b = engine_factory("fullload")
        assert a.query(SQL_A34).approx_equal(b.query(SQL_A34))
        assert a.query(SQL_A12).approx_equal(b.query(SQL_A12))


class TestSplitFilesDialectFallback:
    """Non-plain dialects cannot be cracked; splitfiles must degrade."""

    def test_jsonl_degrades_to_column_loads(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(
            '{"a1": 1, "a2": 10}\n{"a1": 2, "a2": 20}\n{"a1": 3, "a2": 30}\n'
        )
        engine = NoDBEngine(EngineConfig(policy="splitfiles"))
        try:
            engine.attach("r", p, format="jsonl")
            result = engine.query("select sum(a2) from r where a1 > 1")
            assert result.scalar() == 50
            assert engine.catalog.get("r").split_catalog is None  # never cracked
            # the fallback still populates the adaptive store
            table = engine.catalog.get("r").table
            assert table is not None and table.columns
        finally:
            engine.close()

    def test_quoted_csv_degrades_but_plain_still_cracks(
        self, tmp_path, engine_factory
    ):
        p = tmp_path / "d.csv"
        p.write_text('1,"a,x"\n2,"b,y"\n')
        engine = NoDBEngine(EngineConfig(policy="splitfiles"))
        try:
            engine.attach("r", p, format="quoted-csv")
            assert engine.query("select count(*) from r").scalar() == 2
            assert engine.catalog.get("r").split_catalog is None
        finally:
            engine.close()
        plain = engine_factory("splitfiles")
        plain.query("select sum(a1) from r")
        assert plain.catalog.get("r").split_catalog is not None  # plain still cracks


# ---------------------------------------------------------------------------
# every counter of every policy, pinned
# ---------------------------------------------------------------------------

#: Recorded per-query counters of :func:`run_pinned_sequence`, one list per
#: ``"<scenario>/<policy>"``.  Any change to what a policy reads, parses,
#: keeps or serves shows up here as a changed tuple.
PINNED = Path(__file__).with_name("policy_counters.json")

PINNED_ROWS = 960
COLORS = ("red", "green", "blue", "amber")
RANGE = "select sum(a2), avg(a3) from r where a1 >= 100 and a1 < 400"
PINNED_SEQUENCE = [
    RANGE,  # cold
    RANGE,  # repeat
    "select sum(a2), avg(a3) from r where a1 >= 150 and a1 < 300",  # zoom-in
    "select sum(a4) from r where a4 > 100 and a4 < 250",  # next column
    "select a1, a4 from r where a2 < 500 order by a4 desc, a1 limit 5",
    "select count(*) from r",
    "select s, count(*), sum(a4) from r group by s order by s",
    # a burst on one predicate column: cracking engages at crack_after=2
    "select count(*), sum(a4) from r where a2 > 100 and a2 < 600",
    "select count(*), sum(a4) from r where a2 > 200 and a2 < 500",
    "select count(*), sum(a4) from r where a2 > 250 and a2 < 450",
    "select count(*), sum(a4) from r where a2 > 300 and a2 < 400",
    "select count(*), sum(a4) from r where a2 > 120 and a2 < 700",
]
#: Run after ``set_policy`` switches to the next policy in POLICIES.
AFTER_SWITCH = [
    RANGE,
    "select sum(a3) from r where a3 > 50 and a3 < 150",
    "select count(*) from r where a4 < 100",
    "select s, max(a1) from r where a1 > 800 group by s order by s",
]
#: name -> (file suffix, attach format, memory budget in bytes)
PINNED_SCENARIOS = {
    "csv": (".csv", None, None),
    "jsonl": (".jsonl", "jsonl", None),
    # Smaller than the resident columns plus the positional map: fullload
    # reloads evicted columns, the map is cut back after framing passes.
    "budget": (".csv", None, 20_000),
}


def pinned_rows():
    for i in range(PINNED_ROWS):
        yield {
            "a1": i,
            "a2": (i * 37) % 1000,
            "a3": ((i * 53) % 997) / 4,
            "a4": (i * 91) % 500,
            "s": COLORS[(i * 7) % 5 % 4],
        }


def write_pinned_file(path: Path, fmt: str | None) -> None:
    if fmt == "jsonl":
        lines = [json.dumps(row) for row in pinned_rows()]
    else:
        lines = ["a1,a2,a3,a4,s"] + [
            f"{r['a1']},{r['a2']},{r['a3']:.2f},{r['a4']},{r['s']}"
            for r in pinned_rows()
        ]
    path.write_text("\n".join(lines) + "\n")


def _plain(value):
    """JSON-stable form of one result cell (floats to 12 digits)."""
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if isinstance(value, np.integer):
        return int(value)
    return value


def run_pinned_sequence(scenario: str, policy: str, directory: Path) -> list[list]:
    """Run the fixed sequence; one recorded tuple per query."""
    suffix, fmt, budget = PINNED_SCENARIOS[scenario]
    path = directory / f"pinned{suffix}"
    write_pinned_file(path, fmt)
    switch_to = POLICIES[(POLICIES.index(policy) + 1) % len(POLICIES)]
    config = EngineConfig(
        policy=policy, crack_after=2, zone_map_rows=64, memory_budget_bytes=budget
    )
    records = []
    with NoDBEngine(config) as engine:
        engine.attach("r", path, format=fmt)
        for i, sql in enumerate(PINNED_SEQUENCE + AFTER_SWITCH):
            if i == len(PINNED_SEQUENCE):
                engine.set_policy(switch_to)
            result = engine.query(sql)
            q = engine.stats.last()
            counters = engine.stats.counters
            records.append([
                q.policy,
                q.went_to_file,
                q.served_from_store,
                q.rows_loaded,
                q.split_files_written,
                q.cracks,
                q.served_by_cracker,
                q.zone_map_skips,
                q.file_bytes_read,
                q.file_reads,
                q.parse.values_parsed,
                q.tokenizer.fields_tokenized,
                q.result_rows,
                counters.warm_hits,
                counters.shared_scan_loads,
                [[_plain(v) for v in row] for row in result.rows()[:3]],
            ])
    return records


@pytest.mark.parametrize("scenario", sorted(PINNED_SCENARIOS))
@pytest.mark.parametrize("policy", POLICIES)
def test_counters_per_policy_are_pinned(policy, scenario, tmp_path):
    got = run_pinned_sequence(scenario, policy, tmp_path)
    expected = json.loads(PINNED.read_text())[f"{scenario}/{policy}"]
    assert len(got) == len(expected)
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"query {i} ({(PINNED_SEQUENCE + AFTER_SWITCH)[i]!r})"


def test_pinned_runs_reach_every_branch():
    """The pinned sequence exercises what it is there to guard."""
    pinned = json.loads(PINNED.read_text())
    cracked = [key for key, runs in pinned.items() if any(r[6] for r in runs)]
    assert {"csv/fullload", "csv/column_loads", "csv/splitfiles"} <= set(cracked)
    assert any(r[4] for r in pinned["csv/splitfiles"])  # split files written
    assert not any(r[4] for r in pinned["jsonl/splitfiles"])  # degraded
    assert any(r[7] for r in pinned["csv/partial_v1"])  # zone maps skipped
    # fullload under the budget reloads columns it evicted
    assert any(r[1] and r[3] for r in pinned["budget/fullload"][1:])
    # partial_v2 serves a zoom-in from certified fragments
    assert pinned["csv/partial_v2"][2][2]
