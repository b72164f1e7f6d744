"""The bench-regression gate: committed baseline vs. current results."""

from __future__ import annotations

import json

from benchmarks.check_regression import main


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


def bench_payload(name, metrics):
    return {"bench": name, "metrics": metrics, "env": {"cpu_count": 1}}


def baseline_payload(benches, tolerance=0.25):
    return {
        "tolerance": tolerance,
        "benches": {n: {"metrics": m} for n, m in benches.items()},
    }


def test_gate_passes_within_tolerance(tmp_path):
    base = write_json(
        tmp_path / "base.json", baseline_payload({"b": {"mb_s": 100.0}})
    )
    cur = write_json(tmp_path / "cur.json", bench_payload("b", {"mb_s": 80.0}))
    assert main([str(cur), "--baseline", str(base)]) == 0


def test_gate_fails_beyond_tolerance(tmp_path, capsys):
    base = write_json(
        tmp_path / "base.json", baseline_payload({"b": {"mb_s": 100.0}})
    )
    cur = write_json(tmp_path / "cur.json", bench_payload("b", {"mb_s": 60.0}))
    assert main([str(cur), "--baseline", str(base)]) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_missing_bench_fails(tmp_path):
    base = write_json(
        tmp_path / "base.json",
        baseline_payload({"b": {"mb_s": 1.0}, "c": {"mb_s": 1.0}}),
    )
    cur = write_json(tmp_path / "cur.json", bench_payload("b", {"mb_s": 1.0}))
    assert main([str(cur), "--baseline", str(base)]) == 1


def test_missing_metric_fails(tmp_path):
    base = write_json(
        tmp_path / "base.json",
        baseline_payload({"b": {"mb_s": 1.0, "speedup": 2.0}}),
    )
    cur = write_json(tmp_path / "cur.json", bench_payload("b", {"mb_s": 1.0}))
    assert main([str(cur), "--baseline", str(base)]) == 1


def test_improvement_passes(tmp_path):
    base = write_json(
        tmp_path / "base.json", baseline_payload({"b": {"mb_s": 100.0}})
    )
    cur = write_json(tmp_path / "cur.json", bench_payload("b", {"mb_s": 500.0}))
    assert main([str(cur), "--baseline", str(base)]) == 0


def test_tolerance_override(tmp_path):
    base = write_json(
        tmp_path / "base.json", baseline_payload({"b": {"mb_s": 100.0}})
    )
    cur = write_json(tmp_path / "cur.json", bench_payload("b", {"mb_s": 60.0}))
    assert main([str(cur), "--baseline", str(base), "--tolerance", "0.5"]) == 0


def test_update_writes_baseline(tmp_path):
    base = tmp_path / "base.json"
    cur = write_json(tmp_path / "cur.json", bench_payload("b", {"mb_s": 42.0}))
    assert main([str(cur), "--baseline", str(base), "--update"]) == 0
    written = json.loads(base.read_text())
    assert written["benches"]["b"]["metrics"] == {"mb_s": 42.0}
    # the freshly written baseline gates its own inputs
    assert main([str(cur), "--baseline", str(base)]) == 0


def test_update_preserves_hand_tuned_tolerance(tmp_path):
    base = write_json(
        tmp_path / "base.json",
        baseline_payload({"b": {"mb_s": 1.0}}, tolerance=0.1),
    )
    cur = write_json(tmp_path / "cur.json", bench_payload("b", {"mb_s": 2.0}))
    assert main([str(cur), "--baseline", str(base), "--update"]) == 0
    assert json.loads(base.read_text())["tolerance"] == 0.1


def test_missing_baseline_file_fails(tmp_path):
    cur = write_json(tmp_path / "cur.json", bench_payload("b", {"mb_s": 1.0}))
    assert main([str(cur), "--baseline", str(tmp_path / "nope.json")]) == 1


def test_committed_baseline_is_valid():
    """The baseline in the repo root must stay structurally sound."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    payload = json.loads((root / "BENCH_BASELINE.json").read_text())
    assert 0 < payload["tolerance"] < 1
    assert set(payload["benches"]) == {
        "concurrent",
        "dialects",
        "persistence",
        "selective_read",
        "server",
        "tokenize",
        "skipping",
        "append",
    }
    for entry in payload["benches"].values():
        assert entry["metrics"], "every baselined bench gates >= 1 metric"
        assert all(v > 0 for v in entry["metrics"].values())
