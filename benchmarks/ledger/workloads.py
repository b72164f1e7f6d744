"""The five workloads, driven through the public surface only.

Embedded workloads use ``repro.connect()``; ``http_mixed`` starts
``python -m repro serve`` as a subprocess and talks to it through
``RemoteConnection``.  Every workload is a closed loop (each caller
waits for its reply), runs until its time is up, and checks every
answer against ``check.Truth``.  A wrong answer, an exception or a
refusal is a failed op.

A workload object has four steps, called by ``cli.py``:

``generate()``  make the inputs from the seed (timed as ``datagen_s``)
``setup()``     bring the program to the state the timed part starts
                from (timed as ``setup_s``); returns that state
``measure()``   the timed part: run ops for the given number of seconds
``teardown()``  release the state

Nothing here knows about tracing, except that ``http_mixed`` can be
asked to start the server through ``traced_server.py``.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.client import RemoteConnection

from benchmarks.ledger import ROOT, SRC, datagen
from benchmarks.ledger.check import Truth, equal

now = time.perf_counter


@dataclass
class Context:
    """What one invocation fixes for every workload it runs."""

    seed: int
    work: Path  # scratch space; every file the benchmark makes lives here
    scale: int = 1  # ``--smoke`` divides every row count by 50

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def rows(self, full: int) -> int:
        return max(100, full // self.scale)


@dataclass
class Samples:
    """What one timed part recorded."""

    series: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0  # time callers spent inside ops (checks excluded)
    rows_out: int = 0
    counters: Counter = field(default_factory=Counter)
    gauges: dict[str, float] = field(default_factory=dict)

    def merge(self, other: "Samples") -> None:
        for name, values in other.series.items():
            self.series[name] += values
        self.attempted += other.attempted
        self.failed += other.failed
        self.busy_s += other.busy_s
        self.rows_out += other.rows_out
        self.counters.update(other.counters)
        self.gauges.update(other.gauges)

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"ledger: failed op: {why}", file=sys.stderr)

    def verify(self, q: datagen.Query, result, want: list[np.ndarray]) -> None:
        """Count a wrong answer as a failed op (``result`` None: the op
        already failed when it raised)."""
        if result is None:
            return
        self.rows_out += result.num_rows
        if not equal(q, result.columns, want):
            self.fail(f"wrong answer to: {q.sql}")


def ask(conn, q: datagen.Query, samples: Samples):
    """One query as one op: ``(seconds, result)``, result None if it raised."""
    samples.attempted += 1
    start = now()
    try:
        result = conn.execute(q.sql)
    except Exception:  # the benchmark reports failed ops, it does not die of them
        traceback.print_exc(file=sys.stderr)
        samples.fail(f"exception from: {q.sql}")
        result = None
    return now() - start, result


def must_answer(conn, q: datagen.Query, truth: Truth, first_page: bool = False) -> None:
    """A set-up query: run it, check it, and give up on the run if it fails."""
    samples = Samples()
    _, result = ask(conn, q, samples)
    if first_page and result is not None:
        result = result.page(0)
    samples.verify(q, result, truth.expected(q))
    if samples.failed:
        raise RuntimeError(f"set-up query failed: {q.sql}")


def engine_counts(stats: dict) -> Counter:
    """The numeric part of ``conn.stats()`` / ``/stats['engine']``, flat."""
    flat = Counter({k: v for k, v in stats.items() if isinstance(v, int)})
    flat.update(stats["counters"])
    return flat


def embedded_counts(conn) -> Counter:
    counts = engine_counts(conn.stats())
    counts["evictions"] = conn.engine.memory.stats.evictions
    return counts


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Workload:
    """Base: holds the context and the metric names of one workload."""

    name: str
    #: Callers running ops at the same time.
    clients = 1
    #: Series whose medians fill ``primary_p50_ms`` / ``secondary_p50_ms``.
    primary: str
    secondary: str
    #: The workload's own metric names: name -> (series, unit).
    named: dict[str, tuple[str, str]]

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def teardown(self, state) -> None:
        pass


class ExploreCold(Workload):
    """Data-to-first-result on a fresh store, then the adaptive curve:
    primary = connect to 1st answer, secondary = connect to 8th; raw
    read, tokenize and parse do the work, server and store-restore none."""

    name = "explore_cold"
    primary, secondary = "first_result", "sequence"
    named = {"first_result_s": ("first_result", "s"), "sequence_s": ("sequence", "s")}

    def generate(self) -> None:
        ctx = self.ctx
        rng = ctx.rng(0)
        t, d = datagen.make_t(rng, ctx.rows(datagen.COLD_ROWS)), datagen.make_d(rng)
        self.t_path, self.d_path = ctx.work / "T_cold.csv", ctx.work / "D.csv"
        datagen.write_csv(self.t_path, t)
        datagen.write_csv(self.d_path, d)
        self.truth = Truth(t, d)
        self.query_rng = ctx.rng(1)

    def setup(self, traced: bool = False) -> None:
        """One untimed exploration: imports, lazy set-up and the OS cache."""
        self._explore(Samples())

    def measure(self, state, seconds: float, samples: Samples) -> None:
        deadline = now() + seconds
        while True:
            self._explore(samples)
            if now() >= deadline:
                break

    def _explore(self, samples: Samples) -> None:
        queries = datagen.explore_queries(self.query_rng, self.truth.t)
        wanted = [self.truth.expected(q) for q in queries]
        store = Path(tempfile.mkdtemp(prefix="store_", dir=self.ctx.work))
        results = []
        start = now()
        conn = repro.connect(self.t_path, self.d_path, store_dir=store)
        try:
            for q in queries:
                seconds, result = ask(conn, q, samples)
                samples.series["query"].append(seconds)
                if not results:
                    samples.series["first_result"].append(now() - start)
                results.append(result)
            samples.series["sequence"].append(now() - start)
        finally:
            conn.close()
        samples.busy_s += now() - start
        for q, result, want in zip(queries, results, wanted):
            samples.verify(q, result, want)
        samples.counters.update(embedded_counts(conn))
        samples.gauges["store_bytes"] = tree_bytes(store)
        samples.gauges["data_bytes"] = self.t_path.stat().st_size + self.d_path.stat().st_size
        shutil.rmtree(store)


class _OneTable(Workload):
    """Shared by the workloads that query one long-lived copy of ``T``."""

    def generate(self) -> None:
        ctx = self.ctx
        self.t = datagen.make_t(ctx.rng(0), ctx.rows(datagen.T_ROWS))
        self.path = ctx.work / "T.csv"
        datagen.write_csv(self.path, self.t)
        self.query_rng = ctx.rng(1)


class _Ranges(_OneTable):
    """One embedded connection, columns brought in by set-up, then range
    aggregates; subclasses pick the policy and the query stream."""

    config: dict = {}
    warm_columns: tuple[str, ...]

    def generate(self) -> None:
        super().generate()
        self.truth = Truth(self.t, index=("ts", "u1", "u2", "u3"))

    def setup(self, traced: bool = False):
        conn = repro.connect(self.path, **self.config)
        try:
            must_answer(conn, datagen.load_query(self.warm_columns), self.truth)
        except BaseException:
            conn.close()
            raise
        return conn

    def teardown(self, conn) -> None:
        conn.close()

    def one(self, conn, q: datagen.Query, samples: Samples) -> float:
        want = self.truth.expected(q)
        seconds, result = ask(conn, q, samples)
        samples.busy_s += seconds
        samples.verify(q, result, want)
        return seconds


class RangeResident(_Ranges):
    """Warm in-memory route (executor masks, then cracking): primary =
    one range aggregate, secondary = a dwell burst of 100; flatfile and
    storage idle, so a tokenizer change must not move it."""

    name = "range_resident"
    primary, secondary = "query", "burst"
    named = {"query_p50_ms": ("query", "ms"), "burst_p50_ms": ("burst", "ms")}
    warm_columns = datagen.RESIDENT_COLUMNS

    def measure(self, conn, seconds: float, samples: Samples) -> None:
        before = embedded_counts(conn)
        deadline = now() + seconds
        for burst in datagen.resident_queries(self.query_rng, self.t):
            times = []
            for q in burst:
                if now() >= deadline:
                    break
                times.append(self.one(conn, q, samples))
            samples.series["query"] += times
            if len(times) < len(burst):
                break
            samples.series["burst"].append(sum(times))
        samples.counters.update(embedded_counts(conn) - before)


class RangeSelective(_Ranges):
    """partial_v1 keeps nothing resident, so every query re-reads:
    primary = 1% range on clustered ts (zone maps skip), secondary = 1%
    range on uniform u1 (no skip; windowed re-read + parse)."""

    name = "range_selective"
    primary, secondary = "clustered", "uniform"
    named = {"clustered_p50_ms": ("clustered", "ms"), "uniform_p50_ms": ("uniform", "ms")}
    config = {"policy": "partial_v1"}
    warm_columns = ("ts", "u1", "u2")

    def measure(self, conn, seconds: float, samples: Samples) -> None:
        before = embedded_counts(conn)
        deadline = now() + seconds
        # Whole groups only, so every run has the same 11:1 mix.
        queries = datagen.selective_queries(self.query_rng, self.t)
        while now() < deadline:
            for _ in range(datagen.SELECTIVE_GROUP):
                q = next(queries)
                kind = "clustered" if q.where[0][0] == "ts" else "uniform"
                samples.series[kind].append(self.one(conn, q, samples))
        samples.counters.update(embedded_counts(conn) - before)


@dataclass
class _Restartable:
    path: Path
    store: Path
    truth: Truth


class RestartAppend(_OneTable):
    """Write beside read on a warm store: cycles of connect, 3 queries,
    append 0.25%, 3 queries, close; primary = connect to 1st answer,
    secondary = whole cycle through close(); also the durability check."""

    name = "restart_append"
    primary, secondary = "first_result", "cycle"
    named = {
        "first_result_s": ("first_result", "s"),
        "append_result_s": ("append_result", "s"),
        "cycle_s": ("cycle", "s"),
    }

    def generate(self) -> None:
        super().generate()
        self.append_rng = self.ctx.rng(2)
        self.append_rows = max(10, datagen.APPEND_ROWS // self.ctx.scale)

    def setup(self, traced: bool = False) -> _Restartable:
        """A private copy of ``T`` and a store made warm by one cold run."""
        work = Path(tempfile.mkdtemp(prefix="restart_", dir=self.ctx.work))
        state = _Restartable(work / "T.csv", work / "store", Truth(self.t))
        shutil.copyfile(self.path, state.path)
        with repro.connect(state.path, store_dir=state.store) as conn:
            for q in datagen.restart_queries(self.query_rng, self.t):
                must_answer(conn, q, state.truth)
        return state

    def teardown(self, state: _Restartable) -> None:
        shutil.rmtree(state.path.parent)

    def measure(self, state: _Restartable, seconds: float, samples: Samples) -> None:
        deadline = now() + seconds
        while now() < deadline:
            self._cycle(state, samples)
        samples.gauges["store_bytes"] = tree_bytes(state.store)
        samples.gauges["data_bytes"] = state.path.stat().st_size

    def _cycle(self, state: _Restartable, samples: Samples) -> None:
        truth = state.truth
        queries = datagen.restart_queries(self.query_rng, truth.t)
        batch = datagen.make_t(
            self.append_rng, self.append_rows, ts_start=int(truth.t["ts"][-1])
        )
        # Both sets of expected answers are worked out before the clock
        # starts: checking inside the cycle would count as cycle time.
        wanted = [truth.expected(q) for q in queries]
        truth.append(batch)
        wanted += [truth.expected(q) for q in queries]
        results = []
        start = now()
        conn = repro.connect(state.path, store_dir=state.store)
        try:
            for q in queries:
                _, result = ask(conn, q, samples)
                if not results:
                    samples.series["first_result"].append(now() - start)
                results.append(result)
            datagen.append_csv(state.path, batch)
            appended = now()
            for q in queries:
                _, result = ask(conn, q, samples)
                if len(results) == len(queries):
                    samples.series["append_result"].append(now() - appended)
                results.append(result)
        finally:
            conn.close()
        cycle = now() - start
        samples.series["cycle"].append(cycle)
        samples.busy_s += cycle
        for q, result, want in zip(queries + queries, results, wanted):
            samples.verify(q, result, want)
        samples.counters.update(embedded_counts(conn))
        samples.counters["connects"] += 1


@dataclass
class _Served:
    proc: subprocess.Popen
    url: str
    spans: Path | None  # where a traced server leaves its spans


class HttpMixed(_OneTable):
    """repro serve + 2 clients: 85% range aggregates (a third can hit
    the result cache), 15% paged 4-column downloads; primary = agg op,
    secondary = page op; sql, result, server and client dominate."""

    name = "http_mixed"
    clients = 2
    primary, secondary = "agg", "page"
    named = {
        "agg_p50_ms": ("agg", "ms"),
        "page_p50_ms": ("page", "ms"),
        "page_rows_per_s": ("page_rows_per_s", "rows/s"),
    }
    #: The client id of set-up requests; timed clients are ``c0``, ``c1``.
    SETUP_CLIENT = "setup"

    def generate(self) -> None:
        super().generate()
        self.truth = Truth(self.t, index=("ts", "u1"))
        self.pool = datagen.http_pool(self.query_rng, self.t)
        page_rows = len(self.t["ts"]) * datagen.PAGE_ROW_SHARE
        self.page_size = max(1, int(page_rows) // datagen.PAGES_PER_OP)

    def setup(self, traced: bool = False) -> _Served:
        """Start the server on ``T`` and load the columns the ops touch."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        spans = None
        command = [sys.executable, "-u", "-m", "repro", "serve"]
        if traced:
            spans = self.ctx.work / "server_spans.jsonl"
            command[3:] = ["benchmarks.ledger.traced_server", str(spans)]
        proc = subprocess.Popen(
            command + [str(self.path), "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=self.ctx.work,
        )
        state = _Served(proc, "", spans)
        try:
            banner = proc.stdout.readline()  # "repro serving on http://host:port"
            if "http://" not in banner:
                raise RuntimeError(f"{self.name}: server did not start: {banner!r}")
            state.url = banner.split()[-1]
            conn = RemoteConnection(state.url, client_id=self.SETUP_CLIENT)
            q = datagen.load_query(datagen.RESIDENT_COLUMNS)
            must_answer(conn, q, self.truth, first_page=True)
        except BaseException:
            self.teardown(state)
            raise
        return state

    def teardown(self, state: _Served) -> None:
        """SIGTERM drains the server; wait until the process has ended."""
        proc = state.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def measure(self, state: _Served, seconds: float, samples: Samples) -> None:
        admin = RemoteConnection(state.url, client_id=self.SETUP_CLIENT)
        before = self._server_counts(admin)
        barrier = threading.Barrier(self.clients)
        parts = [Samples() for _ in range(self.clients)]
        threads = [
            # The thread is named after its client id: the trace joins a
            # client's spans to the server's on that name.
            threading.Thread(
                name=f"c{i}",
                target=self._client,
                args=(state.url, i, seconds, barrier, part),
            )
            for i, part in enumerate(parts)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for part in parts:
            samples.merge(part)
        samples.counters.update(self._server_counts(admin) - before)

    @staticmethod
    def _server_counts(admin: RemoteConnection) -> Counter:
        stats = admin.stats()
        counts = engine_counts(stats["engine"])
        counts["evictions"] = stats["memory"]["evictions"]
        counts["rejected"] = (
            stats["admission"]["rejected_global"] + stats["admission"]["rejected_client"]
        )
        return counts

    def _client(
        self, url: str, index: int, seconds: float, barrier, samples: Samples
    ) -> None:
        conn = RemoteConnection(url, client_id=f"c{index}")
        ops = datagen.http_ops(self.ctx.rng(10 + index), self.t, self.pool)
        barrier.wait()
        deadline = now() + seconds
        # Whole blocks only, so every run has the same op mix.
        for done, (kind, q) in enumerate(ops):
            if done % len(datagen.HTTP_BLOCK) == 0 and now() >= deadline:
                break
            want = self.truth.expected(q)
            samples.attempted += 1
            start = now()
            try:
                if kind == "agg":
                    pages = [conn.execute(q.sql).page(0)]
                else:
                    result = conn.execute(q.sql, page_size=self.page_size)
                    pages = list(result.pages())
                    result.delete()
            except Exception:  # a refusal or an error is a failed op, not a crash
                traceback.print_exc(file=sys.stderr)
                samples.fail(f"{kind} op raised: {q.sql}")
                continue
            took = now() - start
            samples.busy_s += took
            samples.series[kind].append(took)
            # A paged answer is judged once its last page has arrived.
            columns = [np.concatenate(c) for c in zip(*(p.columns for p in pages))]
            rows = len(columns[0])
            samples.rows_out += rows
            if kind == "page":
                samples.series["page_rows_per_s"].append(rows / took)
            if not equal(q, columns, want):
                samples.fail(f"wrong answer to: {q.sql}")
        samples.counters["client_retries"] += conn.client_retries


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w
    for w in (ExploreCold, RangeResident, RangeSelective, RestartAppend, HttpMixed)
}
