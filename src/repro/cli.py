"""Command-line interface: the Unix-tool face of the vision.

The paper's pitch is "a hybrid experience between using a Unix tool and a
DBMS".  This CLI is that experience verbatim — point it at files, get
results, no ceremony::

    # one-shot: query a file directly (the file becomes table `t`,
    # or `t1..tN` when several files are given)
    python -m repro "select sum(a1), avg(a2) from t where a1 > 10" data.csv

    # pick a loading policy / auto-tuning / stats
    python -m repro --policy splitfiles --stats "select ..." data.csv
    python -m repro --auto "select ..." data.csv

    # interactive shell over a set of files
    python -m repro --shell data.csv other.csv

    # serve the engine to many clients over HTTP (see repro.server)
    python -m repro serve data.csv --port 8321

Exit status: 0 on success, 1 on SQL/data errors (message on stderr).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

from repro.api import table_names_for
from repro.config import POLICIES, EngineConfig
from repro.core.engine import NoDBEngine
from repro.errors import ReproError
from repro.flatfile.dialects import FORMATS


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query raw CSV files with SQL, instantly (NoDB reproduction).",
    )
    parser.add_argument(
        "sql",
        nargs="?",
        help="SQL to run (omit with --shell). Tables: t (one file) or t1..tN.",
    )
    parser.add_argument("files", nargs="*", type=Path, help="raw data files (a quoted glob or a directory attaches a multi-file table)")
    parser.add_argument(
        "--policy",
        choices=POLICIES,
        default="column_loads",
        help="loading policy (default: column_loads)",
    )
    parser.add_argument(
        "--auto",
        action="store_true",
        help="after each query, switch to the loading policy the "
        "robustness monitor advises (once a full window of queries ran "
        "under the current one) and print the switch",
    )
    parser.add_argument(
        "--delimiter", default=",", help="field delimiter (default: ',')"
    )
    parser.add_argument(
        "--format",
        choices=("auto",) + FORMATS,
        default="csv",
        help="file dialect; 'auto' sniffs it from the file head and "
        "errors (naming --format/--delimiter) when ambiguous "
        "(default: csv)",
    )
    parser.add_argument(
        "--fixed-widths",
        default=None,
        metavar="W1,W2,...",
        help="comma-separated field widths for --format fixed-width",
    )
    parser.add_argument(
        "--parallel-workers",
        type=int,
        default=1,
        metavar="N",
        help="partition first-pass scans of large files across N workers "
        "(0 = one per CPU; default: 1, serial)",
    )
    parser.add_argument(
        "--partition-min-bytes",
        type=int,
        default=EngineConfig.partition_min_bytes,
        metavar="BYTES",
        help="never parallelize partitions smaller than this "
        f"(default: {EngineConfig.partition_min_bytes})",
    )
    parser.add_argument(
        "--result-cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="cache completed query results (mtime-keyed; invalidated "
        "when a file changes) and serve repeats instantly "
        "(--no-result-cache disables; default: off)",
    )
    parser.add_argument(
        "--max-cached-results",
        type=int,
        default=EngineConfig.max_cached_results,
        metavar="N",
        help="entry cap of the result cache "
        f"(default: {EngineConfig.max_cached_results})",
    )
    parser.add_argument(
        "--store-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="root of the persistent adaptive store: learned state "
        "(positional maps, schemas, loaded columns) is cached here, "
        "keyed by each file's content fingerprint, and restored "
        "restart-warm by later invocations pointing at the same DIR",
    )
    parser.add_argument(
        "--no-persistent-store",
        dest="persistent_store",
        action="store_false",
        help="ignore --store-dir: neither restore from nor write to "
        "the persistent adaptive store",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-query work counters after each result",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the result as strict JSON (the exact wire encoding "
        "the HTTP server uses) instead of the pretty table",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the load plan instead of executing",
    )
    parser.add_argument(
        "--shell", action="store_true", help="interactive SQL shell over the files"
    )
    return parser


def table_names(files: list[Path]) -> list[str]:
    return table_names_for(len(files))


def _print_stats(engine: NoDBEngine, out) -> None:
    if engine.persistent_store is not None:
        # Let background store writes land, so the total below counts
        # this query's save in the shell and one-shot modes alike.
        engine.flush_persistent_store()
    # Read through the JSON-safe snapshot — the same surface the HTTP
    # /stats endpoint serves — never through live counter objects.
    snap = engine.stats.snapshot()
    q = snap["last_query"]
    if q is None:
        return
    if q["result_cache_hit"]:
        source = "result cache"
    elif q["served_from_store"]:
        source = "adaptive store"
    else:
        source = "flat file(s)"
    parallel = (
        f" | parallel partitions {q['parallel_partitions']}"
        if q["parallel_partitions"]
        else ""
    )
    store = (
        f" | store bytes written (total) {snap['persist_bytes_written']:,}"
        if engine.persistent_store is not None
        else ""
    )
    print(
        f"-- {q['elapsed_s'] * 1e3:.1f} ms | {source} | "
        f"bytes read {q['file_bytes_read']:,} | "
        f"values parsed {q['values_parsed']:,} | "
        f"rows loaded {q['rows_loaded']:,}" + parallel + store,
        file=out,
    )


def _follow_advice(engine: NoDBEngine, out) -> None:
    """``--auto``: apply the robustness monitor's advice, printing the switch."""
    advice = engine.monitor.advise()
    old = engine.config.policy
    if advice is None or advice.switch_to == old:
        return
    engine.set_policy(advice.switch_to)
    print(
        f"-- auto-tuner: switched {old} -> {advice.switch_to} ({advice.reason})",
        file=out,
    )


def run_shell(
    engine: NoDBEngine, show_stats: bool, auto: bool, stdin, stdout
) -> int:
    print("repro shell — end statements with Enter; \\q quits.", file=stdout)
    print(f"tables: {', '.join(engine.tables())}", file=stdout)
    for line in stdin:
        sql = line.strip()
        if not sql:
            continue
        if sql in ("\\q", "exit", "quit"):
            break
        try:
            result = engine.query(sql)
            print(result, file=stdout)
            if show_stats:
                _print_stats(engine, stdout)
            if auto:
                _follow_advice(engine, stdout)
        except ReproError as exc:
            print(f"error: {exc}", file=stdout)
    return 0


def run_cache_command(argv: list[str], stdout, stderr) -> int:
    """``repro cache {list,clear} --store-dir DIR``: inspect/clear the
    persistent adaptive store without attaching anything."""
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or clear the persistent adaptive store.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    for action, blurb in (
        ("list", "print one line per cached entry"),
        ("clear", "delete every cached entry"),
    ):
        p = sub.add_parser(action, help=blurb)
        p.add_argument(
            "--store-dir",
            type=Path,
            required=True,
            metavar="DIR",
            help="root of the persistent adaptive store",
        )
    args = parser.parse_args(argv)

    from repro.storage.persistent import PersistentStore

    store = PersistentStore(args.store_dir)
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'}", file=stdout)
        return 0
    entries = store.entries()
    if not entries:
        print("(store is empty)", file=stdout)
        return 0
    for e in entries:
        print(
            f"{e['source']}  rows={e['nrows']}  "
            f"columns={','.join(e['columns']) or '-'}  "
            f"posmap={len(e['positional_map_columns'])} cols  "
            f"{e['bytes_on_disk']:,} bytes  ({e['dir']})",
            file=stdout,
        )
    return 0


def build_serve_arg_parser() -> argparse.ArgumentParser:
    """Parser of ``repro serve`` (split out so tests can drive it)."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve the adaptive engine to many clients over HTTP/JSON.",
    )
    parser.add_argument("files", nargs="*", type=Path, help="raw data files to attach (a quoted glob or a directory attaches a multi-file table)")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8321, help="bind port (0 = ephemeral)"
    )
    parser.add_argument("--policy", choices=POLICIES, default="column_loads")
    parser.add_argument("--delimiter", default=",")
    parser.add_argument("--format", choices=("auto",) + FORMATS, default="csv")
    parser.add_argument(
        "--parallel-workers", type=int, default=1, metavar="N",
        help="partitioned-scan workers (0 = one per CPU)",
    )
    parser.add_argument(
        "--result-cache", action=argparse.BooleanOptionalAction, default=True,
        help="serve repeated identical queries from the result cache "
        "(default: on for the server — many clients repeat queries)",
    )
    parser.add_argument("--store-dir", type=Path, default=None, metavar="DIR")
    parser.add_argument(
        "--no-persistent-store", dest="persistent_store", action="store_false"
    )
    parser.add_argument(
        "--memory-budget-bytes", type=int, default=None, metavar="BYTES"
    )
    parser.add_argument(
        "--page-size", type=int, default=None, metavar="ROWS",
        help="default rows per result page",
    )
    parser.add_argument(
        "--page-size-cap", type=int, default=None, metavar="ROWS",
        help="hard server-side cap on requested page sizes",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="global cap on concurrently executing queries",
    )
    parser.add_argument(
        "--max-inflight-per-client", type=int, default=4, metavar="N",
        help="per-client in-flight query cap (429 beyond it)",
    )
    parser.add_argument(
        "--query-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-query server timeout (504 beyond it)",
    )
    parser.add_argument(
        "--result-ttl", type=float, default=300.0, metavar="SECONDS",
        help="lifetime of stored result resources",
    )
    parser.add_argument(
        "--max-results", type=int, default=256, metavar="N",
        help="LRU cap on stored result resources",
    )
    return parser


def build_server_from_args(args):
    """An unstarted :class:`repro.server.ReproServer` from parsed args."""
    from repro.server import ReproServer

    config = EngineConfig(
        policy=args.policy,
        parallel_workers=args.parallel_workers,
        result_cache=args.result_cache,
        store_dir=args.store_dir if args.persistent_store else None,
        memory_budget_bytes=args.memory_budget_bytes,
    )
    engine = NoDBEngine(config)
    try:
        fmt = None if args.format == "csv" else args.format
        for name, path in zip(table_names_for(len(args.files)), args.files):
            engine.attach(name, path, delimiter=args.delimiter, format=fmt)
        server_kwargs = dict(
            max_inflight=args.max_inflight,
            max_inflight_per_client=args.max_inflight_per_client,
            query_timeout_s=args.query_timeout,
            result_ttl_s=args.result_ttl,
            max_results=args.max_results,
            owns_engine=True,
        )
        if args.page_size is not None:
            server_kwargs["default_page_size"] = args.page_size
        if args.page_size_cap is not None:
            server_kwargs["page_size_cap"] = args.page_size_cap
        return ReproServer(engine, args.host, args.port, **server_kwargs)
    except BaseException:
        engine.close()
        raise


def run_serve_command(argv: list[str], stdout, stderr) -> int:
    """``repro serve [files...]``: run the HTTP query server until ^C.

    ``SIGTERM`` drains gracefully: in-flight requests finish, new
    mutating requests get 503 + ``Retry-After``, and the process exits 0
    once the listener is closed — so process managers rolling the server
    never see dropped queries or a dirty exit.
    """
    args = build_serve_arg_parser().parse_args(argv)
    try:
        server = build_server_from_args(args)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    with server:
        print(f"repro serving on {server.url}", file=stdout)
        if server.engine.tables():
            print(f"tables: {', '.join(server.engine.tables())}", file=stdout)
        if threading.current_thread() is threading.main_thread():
            # The handler must not call drain() inline: it runs on the
            # main thread, which is *inside* serve_forever(), and
            # shutdown() blocks on serve_forever()'s exit handshake — a
            # deadlock.  A daemon thread drains while serve_forever()
            # unwinds naturally below.
            def _on_sigterm(signum, frame):
                print("draining (SIGTERM)", file=stdout, flush=True)
                threading.Thread(
                    target=server.drain, name="repro-drain", daemon=True
                ).start()

            signal.signal(signal.SIGTERM, _on_sigterm)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", file=stdout)
    return 0


def main(argv: list[str] | None = None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    if raw_argv[:1] == ["cache"]:
        return run_cache_command(raw_argv[1:], stdout, stderr)
    if raw_argv[:1] == ["serve"]:
        return run_serve_command(raw_argv[1:], stdout, stderr)
    args = build_arg_parser().parse_args(raw_argv)

    # `sql files...` vs `--shell files...`: with --shell the positional
    # `sql` slot actually holds the first file.
    files = list(args.files)
    sql = args.sql
    if args.shell and sql is not None:
        files.insert(0, Path(sql))
        sql = None
    if not files:
        print("error: no data files given", file=stderr)
        return 1
    if sql is None and not args.shell:
        print("error: no SQL given (or use --shell)", file=stderr)
        return 1

    try:
        config = EngineConfig(
            policy=args.policy,
            parallel_workers=args.parallel_workers,
            partition_min_bytes=args.partition_min_bytes,
            result_cache=args.result_cache,
            max_cached_results=args.max_cached_results,
            store_dir=args.store_dir if args.persistent_store else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    engine = NoDBEngine(config)

    fixed_widths: tuple[int, ...] | None = None
    if args.fixed_widths is not None:
        try:
            fixed_widths = tuple(
                int(w) for w in args.fixed_widths.split(",") if w.strip()
            )
        except ValueError:
            print(
                f"error: --fixed-widths must be comma-separated integers, "
                f"got {args.fixed_widths!r}",
                file=stderr,
            )
            return 1
    fmt = None if args.format == "csv" else args.format
    try:
        for name, path in zip(table_names(files), files):
            engine.attach(
                name,
                path,
                delimiter=args.delimiter,
                format=fmt,
                fixed_widths=fixed_widths,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=stderr)
        return 1

    try:
        if args.shell:
            return run_shell(engine, args.stats, args.auto, stdin, stdout)
        if args.explain:
            print(engine.explain(sql), file=stdout)
            return 0
        result = engine.query(sql)
        if args.json:
            # The exact wire encoding of the HTTP server (strict JSON;
            # non-finite floats as "NaN"/"Infinity"/"-Infinity" strings).
            print(json.dumps(result.to_json_dict(), allow_nan=False), file=stdout)
        else:
            print(result, file=stdout)
        if args.stats:
            _print_stats(engine, stdout)
        if args.auto:
            _follow_advice(engine, stdout)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    finally:
        engine.close()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
