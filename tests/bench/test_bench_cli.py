"""The shared bench-script CLI contract (--quick / --json / overrides)."""

from __future__ import annotations

import json

from benchmarks.harness import BenchReport, bench_arg_parser, dataset_rows, iterations


def parse(argv):
    return bench_arg_parser("test bench").parse_args(argv)


class TestArgs:
    def test_defaults(self):
        args = parse([])
        assert not args.quick
        assert args.json is None
        assert args.rows is None
        assert args.repeats is None

    def test_quick_and_json(self, tmp_path):
        args = parse(["--quick", "--json", str(tmp_path / "out.json")])
        assert args.quick
        assert args.json == tmp_path / "out.json"

    def test_iterations_full(self):
        assert iterations(parse([]), 10) == 10

    def test_iterations_quick_divides(self):
        assert iterations(parse(["--quick"]), 10) == 2

    def test_iterations_quick_never_zero(self):
        assert iterations(parse(["--quick"]), 3) == 1

    def test_repeats_override_wins(self):
        assert iterations(parse(["--quick", "--repeats", "7"]), 10) == 7

    def test_dataset_rows(self):
        assert dataset_rows(parse([]), 1000, 100) == 1000
        assert dataset_rows(parse(["--quick"]), 1000, 100) == 100
        assert dataset_rows(parse(["--rows", "42"]), 1000, 100) == 42


class TestBenchReport:
    def test_payload_shape(self):
        report = BenchReport("demo", {"speedup": 2.0}, {"rows": 10})
        payload = report.payload()
        assert payload["bench"] == "demo"
        assert payload["metrics"] == {"speedup": 2.0}
        assert payload["info"] == {"rows": 10}
        assert payload["env"]["cpu_count"] >= 1

    def test_emit_writes_json(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        BenchReport("demo", {"speedup": 2.0}).emit(out)
        payload = json.loads(out.read_text())
        assert payload["bench"] == "demo"
        assert "demo" in capsys.readouterr().out

    def test_emit_without_json_only_prints(self, capsys):
        BenchReport("demo", {"x": 1.0}).emit(None)
        assert "x" in capsys.readouterr().out
