"""Tests for EngineConfig validation."""

import dataclasses

import pytest

from repro.config import POLICIES, EngineConfig


def test_default_policy_is_valid():
    assert EngineConfig().policy in POLICIES


@pytest.mark.parametrize("policy", POLICIES)
def test_all_policies_accepted(policy):
    assert EngineConfig(policy=policy).policy == policy


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
        "append_extension",
        "auto_invalidate",
        "crack_after",
        "cracking",
        "fault_plan",
        "global_lock",
        "io_bandwidth_bytes_per_sec",
        "io_retry_attempts",
        "io_retry_backoff_s",
        "max_cached_results",
        "memory_budget_bytes",
        "parallel_start_method",
        "parallel_workers",
        "partition_min_bytes",
        "persist_failure_limit",
        "policy",
        "predicate_pushdown",
        "result_cache",
        "selective_reads",
        "splitfile_dir",
        "store_dir",
        "tokenizer_early_abort",
        "use_positional_map",
        "zone_map_rows",
        "zone_maps",
    ]


def test_resolve_splitfile_dir_creates_and_reuses(tmp_path):
    cfg = EngineConfig(splitfile_dir=tmp_path / "splits")
    d1 = cfg.resolve_splitfile_dir()
    assert d1.exists()
    assert cfg.resolve_splitfile_dir() == d1


def test_resolve_splitfile_dir_defaults_to_tempdir():
    cfg = EngineConfig()
    d = cfg.resolve_splitfile_dir()
    assert d.exists()
    assert "repro-splitfiles" in d.name
