"""Tests for the command-line interface."""

import io
import re

import pytest

from repro.cli import main, table_names


def run_cli(*argv, stdin_text=""):
    stdin = io.StringIO(stdin_text)
    stdout = io.StringIO()
    stderr = io.StringIO()
    code = main(list(argv), stdin=stdin, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


class TestOneShot:
    def test_single_file_query(self, small_csv):
        code, out, err = run_cli("select count(*) from t", str(small_csv))
        assert code == 0, err
        assert "500" in out

    def test_aggregate_query(self, small_csv):
        code, out, _ = run_cli(
            "select sum(a1) from t where a1 > 100 and a1 < 103", str(small_csv)
        )
        assert code == 0
        assert "203" in out  # 101 + 102

    def test_multiple_files_t1_t2(self, small_csv, wide_csv):
        code, out, err = run_cli(
            "select count(*) from t1 join t2 on t1.a1 = t2.a1",
            str(small_csv),
            str(wide_csv),
        )
        assert code == 0, err
        assert "300" in out  # wide has 300 rows, keys 0..299 all in small

    def test_policy_flag(self, small_csv):
        code, out, _ = run_cli(
            "--policy", "splitfiles", "select sum(a2) from t", str(small_csv)
        )
        assert code == 0

    def test_stats_flag(self, small_csv):
        code, out, _ = run_cli(
            "--stats", "select count(*) from t", str(small_csv)
        )
        assert code == 0
        assert "bytes read" in out

    def test_explain_flag(self, small_csv):
        code, out, _ = run_cli(
            "--explain", "select sum(a1) from t where a1 > 5", str(small_csv)
        )
        assert code == 0
        assert "needed columns: a1" in out

    def test_delimiter_flag(self, tmp_path):
        path = tmp_path / "p.psv"
        path.write_text("1|2\n3|4\n")
        code, out, _ = run_cli(
            "--delimiter", "|", "select sum(a2) from t", str(path)
        )
        assert code == 0
        assert "6" in out


class TestErrors:
    def test_no_files(self):
        code, _, err = run_cli("select 1")
        assert code == 1
        assert "no data files" in err

    def test_no_sql(self, small_csv):
        code, _, err = run_cli(str(small_csv))
        # The file path lands in the sql slot; binding fails cleanly.
        assert code == 1

    def test_missing_file(self, tmp_path):
        code, _, err = run_cli("select 1 from t", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "does not exist" in err

    def test_bad_sql(self, small_csv):
        code, _, err = run_cli("selekt banana", str(small_csv))
        assert code == 1
        assert "error" in err

    def test_removed_worker_flag_is_a_usage_error(self, small_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--parallel-workers", "2", "select count(*) from t", str(small_csv))
        assert exc.value.code == 2
        assert "unrecognized arguments: --parallel-workers" in capsys.readouterr().err


class TestShell:
    def test_shell_session(self, small_csv):
        code, out, _ = run_cli(
            "--shell",
            str(small_csv),
            stdin_text="select count(*) from t\n\\q\n",
        )
        assert code == 0
        assert "500" in out
        assert "tables: t" in out

    def test_shell_recovers_from_errors(self, small_csv):
        code, out, _ = run_cli(
            "--shell",
            str(small_csv),
            stdin_text="select nope from t\nselect count(*) from t\nquit\n",
        )
        assert code == 0
        assert "error:" in out
        assert "500" in out


class TestAutoTuning:
    def test_auto_flag(self, small_csv):
        code, out, _ = run_cli(
            "--auto", "select count(*) from t", str(small_csv)
        )
        assert code == 0

    def test_shell_prints_the_switch_when_it_happens(self, small_csv):
        sql = "select sum(a1), avg(a2) from t where a1 > 50 and a1 < 300\n"
        code, out, err = run_cli(
            "--auto", "--policy", "external", "--shell", str(small_csv),
            stdin_text=sql * 10,
        )
        assert code == 0, err
        lines = out.splitlines()[2:]  # past the banner and table list
        switches = [ln for ln in lines if ln.startswith("-- auto-tuner:")]
        assert len(switches) == 1
        assert switches[0].startswith(
            "-- auto-tuner: switched external -> splitfiles ("
        )
        # Printed right after the 8th answer (header + one row each).
        assert lines.index(switches[0]) == 8 * 2
        answers = [ln for ln in lines if ln not in switches]
        assert len(answers) == 10 * 2
        assert answers == answers[:2] * 10


class TestFormats:
    def test_format_jsonl(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"id": 1, "qty": 10}\n{"id": 2, "qty": 20}\n')
        code, out, err = run_cli(
            "--format", "jsonl", "select sum(qty) from t", str(p)
        )
        assert code == 0, err
        assert "30" in out

    def test_format_quoted_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('1,"a,b"\n2,"c\nd"\n')
        code, out, err = run_cli(
            "--format", "quoted-csv", "select count(*) from t", str(p)
        )
        assert code == 0, err
        assert "2" in out

    def test_format_fixed_width(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1  ab \n22 c  \n")
        code, out, err = run_cli(
            "--format", "fixed-width", "--fixed-widths", "3,3",
            "select sum(a1) from t", str(p),
        )
        assert code == 0, err
        assert "23" in out

    def test_format_auto_sniffs_tsv(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("1\t5\n2\t6\n")
        code, out, err = run_cli(
            "--format", "auto", "select sum(a2) from t", str(p)
        )
        assert code == 0, err
        assert "11" in out

    def test_format_auto_ambiguous_names_fallback(self, tmp_path):
        p = tmp_path / "d.dat"
        p.write_text("a,b;c\nd,e;f\n")
        code, _, err = run_cli(
            "--format", "auto", "select count(*) from t", str(p)
        )
        assert code == 1
        assert "--delimiter" in err and "--format" in err

    def test_bad_fixed_widths_flag(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1  ab \n")
        code, _, err = run_cli(
            "--format", "fixed-width", "--fixed-widths", "3,x",
            "select count(*) from t", str(p),
        )
        assert code == 1
        assert "--fixed-widths" in err


class TestPersistentStore:
    def test_store_dir_round_trip_and_cache_commands(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        store = tmp_path / "store"

        code, out, _ = run_cli(
            "--store-dir", str(store), "select sum(a) from t", str(p)
        )
        assert code == 0 and "4" in out

        code, out, _ = run_cli("cache", "list", "--store-dir", str(store))
        assert code == 0
        assert "d.csv" in out and "rows=2" in out

        code, out, _ = run_cli("cache", "clear", "--store-dir", str(store))
        assert code == 0 and "cleared 1 entry" in out

        code, out, _ = run_cli("cache", "list", "--store-dir", str(store))
        assert code == 0 and "empty" in out

    @pytest.mark.parametrize("shell", [False, True])
    def test_stats_report_the_store_write_volume(self, tmp_path, shell):
        """One-shot and shell ``--stats`` both wait for the save and
        report the same engine-total store write volume."""
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        store = tmp_path / "store"
        sql = "select sum(a) from t"
        if shell:
            argv = ("--shell", "--store-dir", str(store), "--stats", str(p))
            code, out, _ = run_cli(*argv, stdin_text=sql + "\n\\q\n")
        else:
            code, out, _ = run_cli("--store-dir", str(store), "--stats", sql, str(p))
        assert code == 0
        lines = out.splitlines()
        (stats_at,) = [i for i, line in enumerate(lines) if line.startswith("-- ")]
        assert lines[stats_at - 1].split() == ["4"]  # the result row
        written = re.search(r"store bytes written \(total\) ([\d,]+)", lines[stats_at])
        assert written and int(written.group(1).replace(",", "")) > 0

    def test_no_persistent_store_bypasses(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a\n1\n")
        store = tmp_path / "store"
        code, _, _ = run_cli(
            "--store-dir", str(store), "--no-persistent-store",
            "select count(*) from t", str(p),
        )
        assert code == 0
        code, out, _ = run_cli("cache", "list", "--store-dir", str(store))
        assert code == 0 and "empty" in out


def test_table_names():
    from pathlib import Path

    assert table_names([Path("a")]) == ["t"]
    assert table_names([Path("a"), Path("b")]) == ["t1", "t2"]


class TestJsonMode:
    def test_json_is_the_wire_encoding(self, small_csv):
        import json

        code, out, err = run_cli(
            "--json", "select sum(a1), count(*) from t", str(small_csv)
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["dtypes"] == ["int64", "int64"]
        assert payload["columns"][1] == [500]

        from repro.result import QueryResult

        assert QueryResult.from_json_dict(payload).num_rows == 1


class TestServeSubcommand:
    def test_build_server_from_args(self, small_csv):
        from repro.cli import build_serve_arg_parser, build_server_from_args

        args = build_serve_arg_parser().parse_args(
            [
                str(small_csv),
                "--port", "0",
                "--policy", "column_loads",
                "--max-inflight", "3",
                "--query-timeout", "9",
                "--page-size", "123",
                "--result-ttl", "45",
            ]
        )
        server = build_server_from_args(args)
        try:
            assert server.engine.tables() == ["t"]
            assert server.admission.max_inflight == 3
            assert server.query_timeout_s == 9.0
            assert server.default_page_size == 123
            assert server.results.ttl_s == 45.0
            assert server.owns_engine
        finally:
            server.close()

    def test_serve_roundtrip_over_a_socket(self, small_csv):
        from repro.cli import build_serve_arg_parser, build_server_from_args
        from repro.client import RemoteConnection

        args = build_serve_arg_parser().parse_args([str(small_csv), "--port", "0"])
        server = build_server_from_args(args)
        try:
            server.start()
            conn = RemoteConnection(server.url)
            assert conn.tables() == ["t"]
            assert conn.execute("select count(*) from t").rows() == [(500,)]
        finally:
            server.close()


def test_widened_column_error_is_a_clean_message(tmp_path):
    """A comparison on a column the query's own load widened to ``str``
    prints one error line, not a traceback."""
    path = tmp_path / "r.csv"
    path.write_text(
        "".join(f"{i},{3 * i}\n" if i != 222 else "x222,666\n" for i in range(300))
    )
    code, out, err = run_cli(
        "select a1, count(*) from t group by a1 having a1 > 10", str(path)
    )
    assert code != 0
    assert err.startswith("error: cannot evaluate")
    assert "Traceback" not in out + err
