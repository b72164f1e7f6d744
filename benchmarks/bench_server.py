"""Serving-layer throughput: multi-client QPS and latency over HTTP.

The network tentpole put the adaptive engine behind a stdlib HTTP/JSON
server.  This bench quantifies the cost of that wire layer: a gang of
clients (stdlib ``repro.client`` over real sockets on loopback) fires a
mixed warm workload at one in-process ``ReproServer`` and we measure
aggregate queries/second and mean per-request latency — the numbers a
capacity plan for ``repro serve`` starts from.

The table is warmed first (one cold load), so the gate tracks the
serving stack itself — HTTP framing, JSON encoding, admission control,
result-resource bookkeeping — not raw-file I/O, which the other benches
cover.  Every response is checked against the engine's direct answer, so
the bench doubles as a wire-correctness smoke test.

Script mode (what the CI ``bench-regression`` job runs)::

    PYTHONPATH=src python -m benchmarks.bench_server --quick --json out.json

Gated metrics: ``server_qps`` (aggregate, 4 clients) and
``latency_ok`` (1 / mean request latency in seconds — inverted so the
shared "bigger is better" regression rule applies).
"""

from __future__ import annotations

import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from benchmarks.harness import BenchReport, bench_arg_parser, dataset_rows, iterations
from benchmarks.workload import TableSpec, materialize_csv
from repro import EngineConfig, NoDBEngine
from repro.client import RemoteConnection
from repro.server import ReproServer

CLIENTS = 4
FULL_ROWS = 20_000
QUICK_ROWS = 5_000
FULL_QUERIES_PER_CLIENT = 40
#: Warm aggregates + one paged projection: the steady-state mix a
#: dashboard-style consumer produces.
WORKLOAD = [
    "select sum(a1), avg(a2) from t where a1 > 100",
    "select count(*) from t where a2 > 500",
    "select min(a3), max(a3) from t",
]


def _drive_clients(
    url: str, nclients: int, queries_per_client: int
) -> tuple[float, list[float], list]:
    """Fire the workload from ``nclients`` threaded wire clients.

    Returns (wall seconds, per-request latencies, first client's answers).
    """
    barrier = threading.Barrier(nclients)

    def worker(i: int):
        conn = RemoteConnection(url, client_id=f"bench-{i}")
        barrier.wait()
        latencies, answers = [], []
        for q in range(queries_per_client):
            sql = WORKLOAD[q % len(WORKLOAD)]
            start = time.perf_counter()
            result = conn.execute(sql)
            rows = result.rows()
            latencies.append(time.perf_counter() - start)
            answers.append(rows)
        return latencies, answers

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=nclients) as pool:
        outcomes = list(pool.map(worker, range(nclients)))
    elapsed = time.perf_counter() - start
    latencies = [lat for lats, _ in outcomes for lat in lats]
    return elapsed, latencies, outcomes[0][1]


def main(argv: list[str] | None = None) -> int:
    parser = bench_arg_parser(
        "Multi-client QPS and latency of the HTTP serving layer."
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=CLIENTS,
        metavar="N",
        help=f"concurrent wire clients (default: {CLIENTS})",
    )
    args = parser.parse_args(argv)
    rows = dataset_rows(args, FULL_ROWS, QUICK_ROWS)
    queries_per_client = iterations(args, FULL_QUERIES_PER_CLIENT)
    nclients = max(2, args.clients)

    with tempfile.TemporaryDirectory(prefix="repro-srvbench-") as tmp:
        path = materialize_csv(
            TableSpec(nrows=rows, ncols=4, seed=700), Path(tmp) / "t.csv"
        )
        engine = NoDBEngine(EngineConfig(policy="column_loads", result_cache=True))
        with ReproServer(
            engine,
            port=0,
            owns_engine=True,
            max_inflight=nclients * 2,
            max_inflight_per_client=4,
        ) as server:
            server.start()
            engine.attach("t", path)
            # Warm the table and pin down the expected answers: the gate
            # measures the serving stack, not the one-off cold load.
            expected = [engine.query(sql).rows() for sql in WORKLOAD]

            elapsed, latencies, answers = _drive_clients(
                server.url, nclients, queries_per_client
            )
            for q, rows_got in enumerate(answers):
                if rows_got != expected[q % len(WORKLOAD)]:
                    print(
                        f"FATAL: served answer #{q} differs from the "
                        "engine's direct answer",
                        file=sys.stderr,
                    )
                    return 1
            rejected = server.admission.snapshot()["rejected_global"]

    nqueries = nclients * queries_per_client
    mean_latency = sum(latencies) / len(latencies)
    report = BenchReport(
        bench="server",
        metrics={
            "server_qps": nqueries / elapsed,
            "latency_ok": 1.0 / mean_latency,
        },
        info={
            "rows": rows,
            "clients": nclients,
            "queries": nqueries,
            "mean_latency_ms": round(mean_latency * 1e3, 3),
            "max_latency_ms": round(max(latencies) * 1e3, 3),
            "rejected_429": rejected,
            "quick": args.quick,
        },
    )
    report.emit(args.json)

    if rejected:
        # The bench sizes max_inflight above the client count; any 429
        # here means admission accounting leaked a slot.
        print(f"FATAL: {rejected} requests rejected by admission", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
