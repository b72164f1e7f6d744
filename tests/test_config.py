"""Tests for EngineConfig validation."""

import dataclasses

import pytest

import repro
from repro.config import POLICIES, EngineConfig


def test_default_policy_is_valid():
    assert EngineConfig().policy in POLICIES


@pytest.mark.parametrize("policy", POLICIES)
def test_all_policies_accepted(policy):
    assert EngineConfig(policy=policy).policy == policy


def test_every_policy_name_has_one_record():
    from repro.core.policies import POLICIES as RECORDS, make_policy

    assert tuple(RECORDS) == POLICIES
    assert [make_policy(p).name for p in POLICIES] == list(POLICIES)
    assert [p for p in POLICIES if make_policy(p).loads_all_cold] == ["fullload"]
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("magic")


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown policy"):
        EngineConfig(policy="magic")


def test_bad_budget_rejected():
    with pytest.raises(ValueError, match="memory_budget_bytes"):
        EngineConfig(memory_budget_bytes=0)


def test_knob_ratchet():
    """Every EngineConfig field, pinned: adding or removing a knob must
    show up as a reviewed one-line change here."""
    assert sorted(f.name for f in dataclasses.fields(EngineConfig)) == [
        "crack_after",
        "cracking",
        "fault_plan",
        "global_lock",
        "io_bandwidth_bytes_per_sec",
        "max_cached_results",
        "memory_budget_bytes",
        "policy",
        "predicate_pushdown",
        "result_cache",
        "selective_reads",
        "store_dir",
        "use_positional_map",
        "zone_map_rows",
        "zone_maps",
    ]


def test_removed_knob_is_a_type_error():
    """A removed field is an unknown keyword, never silently ignored."""
    for knob, value in (
        ("tokenizer_early_abort", False),
        ("parallel_start_method", "spawn"),
        ("parallel_workers", 2),
        ("partition_min_bytes", 1 << 20),
    ):
        with pytest.raises(TypeError, match=knob):
            repro.connect(**{knob: value})
        with pytest.raises(TypeError, match=knob):
            EngineConfig(**{knob: value})
