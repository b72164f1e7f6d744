"""Tier-1 smoke test of the ledger: ``--smoke --trace`` on all five workloads.

Checks the plumbing, not the speed: every workload and metric named in
``BENCHMARK.json`` is emitted, no op fails, each layer's spans fire on
the workloads the README's table predicts and stay silent where it
predicts a bypass, and the self times add up to the root wall.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

EMBEDDED = ("explore_cold", "range_resident", "range_selective", "restart_append")

#: workload -> per-layer metrics that must be above zero there.
FIRES = {
    "explore_cold": (
        "flatfile.read_s", "flatfile.tokenize_s", "flatfile.parse_s",
        "flatfile.bytes_read", "flatfile.values_parsed", "core.load_s",
        "storage.save_s", "storage.store_bytes_per_data_byte", "sql.plan_s",
        "execution.execute_s", "unattributed_s",
    ),
    "range_resident": (
        "core.load_s", "cracking.select_s", "cracking.crack_s",
        "cracking.engaged_frac", "sql.plan_s", "execution.execute_s",
    ),
    "range_selective": (
        "flatfile.read_s", "flatfile.gather_s", "flatfile.parse_s",
        "flatfile.bytes_read", "core.load_s", "core.skip_s",
        "core.zones_skipped_frac", "sql.plan_s",
    ),
    "restart_append": (
        "flatfile.read_s", "flatfile.tokenize_s", "storage.load_s",
        "storage.save_s", "storage.save_stall_s", "storage.restore_hit_rate",
        "storage.store_bytes_per_data_byte",
    ),
    "http_mixed": (
        "sql.plan_s", "execution.execute_s", "core.result_cache_hit_rate",
        "result.materialize_s", "result.serialize_s", "result.rows_out",
        "server.dispatch_s", "server.store_s", "server.page_s",
        "server.request_p95_ms", "client.decode_s", "client.wait_s",
    ),
}

#: workload -> per-layer metrics that must be exactly zero there.
SILENT = {
    **{
        name: ("server.dispatch_s", "server.store_s", "server.page_s",
               "client.decode_s", "client.wait_s")
        for name in EMBEDDED
    },
    "range_resident": (
        "server.dispatch_s", "client.wait_s", "flatfile.bytes_read",
        "flatfile.read_s", "flatfile.tokenize_s", "storage.load_s",
    ),
    "range_selective": (
        "server.dispatch_s", "client.wait_s", "cracking.select_s",
        "cracking.crack_s", "cracking.engaged_frac",
    ),
    "http_mixed": ("flatfile.bytes_read", "flatfile.read_s", "flatfile.tokenize_s"),
}


def run_ledger(*args: str, out: Path) -> tuple[list[dict], dict[str, dict]]:
    """Run the benchmark's command; (contract lines, report per workload)."""
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args, "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    document = json.loads((out / "ledger.json").read_text())
    return lines, {r["workload"]: r for r in document["runs"]}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_ledger("--smoke", "--trace", out=tmp_path_factory.mktemp("ledger"))


def test_every_workload_and_layer_metric_is_emitted(traced):
    lines, reports = traced
    assert list(reports) == [w["name"] for w in SPEC["workloads"]]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for line in lines:
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {n: m["unit"] for n, m in line["metrics"].items()} == wanted


def test_untraced_run_emits_the_end_to_end_metrics(tmp_path):
    lines, reports = run_ledger(
        "--smoke", "--workload", "range_resident", "--trace", "0", out=tmp_path
    )
    (line,) = lines
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == wanted
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert "per_layer" not in reports["range_resident"]


def test_no_op_fails(traced):
    _, reports = traced
    for report in reports.values():
        assert report["ops_failed"] == 0 and report["ops_attempted"] > 0


@pytest.mark.parametrize("workload", FIRES)
def test_layers_fire_where_predicted_and_only_there(traced, workload):
    layers = traced[1][workload]["per_layer"]
    idle = [m for m in FIRES[workload] if not layers[m] > 0]
    busy = [m for m in SILENT[workload] if layers[m] != 0]
    assert not idle, f"predicted to fire on {workload}, did not: {idle}"
    assert not busy, f"predicted silent on {workload}, fired: {busy}"


@pytest.mark.parametrize("workload", FIRES)
def test_self_times_add_up_to_the_root_wall(traced, workload):
    layers = traced[1][workload]["per_layer"]
    # storage.save_s is the persist writer's background time: no op waits
    # for it except through close(), which is storage.save_stall_s.
    attributed = sum(
        value
        for name, value in layers.items()
        if name.endswith("_s") and name not in ("root_s", "storage.save_s")
    )
    assert attributed == pytest.approx(layers["root_s"], rel=0.01)
