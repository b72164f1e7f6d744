"""Spans around each layer's public callables, recorded from outside.

A traced run wraps the callables in ``TARGETS`` (a layer is a
``src/repro`` module) at every name their callers look them up under,
keeps one span per call in memory (``id, name, start, end, parent,
thread``), and turns the spans into the per-layer metrics of
``LAYER_METRICS`` when the run ends.  The program itself is not edited;
spans inside the engine are a later change.

Self time is a span's duration minus the time its children cover.  Two
kinds of children are found after the run, because the work hops to
another thread or process while the parent waits:

* ``ReproServer.dispatch`` hands ``NoDBEngine.query`` to a pool thread:
  that query span is adopted by the dispatch span whose interval holds it;
* a client request waits for the server's dispatch of it: the two are
  joined on the ``X-Repro-Client`` id (which the workload also gives the
  client thread as its name) and on order per client, and the dispatch
  span counts as the request's child.  What is left of the request is
  ``client.wait_s``: connection, wire, queueing and JSON text decoding.

``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, one clock for
every process of the machine, so client and server spans compare.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

clock = time.perf_counter

#: Names of spans that start an op on the caller's side.
ROOT_PREFIX = "root."
#: The persist writer's span: background work, outside every op.
BACKGROUND = "storage.save"
CLIENT_REQUEST = "client.request"
DISPATCH = "server.dispatch"


def _dispatch_note(self, method, parts, body, client):
    return {"client": client, "route": f"{method} /{parts[0] if parts else ''}"}


def _zones_note(mask):
    if mask is None:
        return None
    return {"zones": int(mask.size), "kept": int(mask.sum())}


#: (span name, owner, attribute[, options]); an owner is ``module`` or
#: ``module:Class``.  A span's self time is reported as ``<name>_s``,
#: except ``root.*`` (``unattributed_s``) and ``client.request``
#: (``client.wait_s``).
TARGETS: list[tuple] = [
    ("root.connect", "repro.api", "connect"),
    ("root.query", "repro.core.engine:NoDBEngine", "query"),
    # close() drains the persist writer: the foreground stall of a save.
    ("storage.save_stall", "repro.api:Connection", "close"),
    ("sql.plan", "repro.sql.parser", "parse_sql"),
    ("sql.plan", "repro.sql.binder", "bind"),
    ("core.load", "repro.core.loader", "run_pass"),
    ("core.load", "repro.core.policies:LoadingPolicy", "provide"),
    ("core.load", "repro.core.policies:LoadingPolicy", "try_serve_warm"),
    ("core.skip", "repro.core.zonemaps:ZoneMapIndex", "zone_keep_mask", {"after": _zones_note}),
    ("cracking.select", "repro.cracking.cracker:CrackerColumn", "select_rowids"),
    ("cracking.crack", "repro.cracking.cracker:CrackerColumn", "crack"),
    ("flatfile.read", "repro.flatfile.files:FlatFile", "read_all_bytes"),
    ("flatfile.read", "repro.flatfile.files:FlatFile", "read_windows"),
    ("flatfile.read", "repro.flatfile.files:FlatFile", "read_range_bytes"),
    # tokenize_bytes picks the scalar or the vectorized route; the latter
    # nests inside it under the same name, so self time counts it once.
    ("flatfile.tokenize", "repro.flatfile.tokenizer", "tokenize_bytes"),
    ("flatfile.tokenize", "repro.flatfile.vectorized", "tokenize_vectorized"),
    ("flatfile.gather", "repro.flatfile.tokenizer", "gather_fields"),
    ("flatfile.parse", "repro.flatfile.parser", "parse_fields"),
    ("storage.load", "repro.storage.persistent:PersistentStore", "load"),
    (BACKGROUND, "repro.storage.persistent:PersistentStore", "save"),
    ("execution.execute", "repro.execution.executor", "execute_bound_query"),
    ("result.materialize", "repro.result:QueryResult", "rows"),
    ("result.materialize", "repro.result:QueryResult", "page"),
    ("result.serialize", "repro.result:QueryResult", "to_json_dict"),
    ("client.decode", "repro.result:QueryResult", "from_json_dict"),
    (DISPATCH, "repro.server.app:ReproServer", "dispatch", {"before": _dispatch_note}),
    ("server.store", "repro.server.results:ResultManager", "store"),
    ("server.page", "repro.server.results:ResultManager", "page"),
    (CLIENT_REQUEST, "repro.client:RemoteConnection", "execute"),
    # Page 0 arrives with the query response; asking for it sends nothing.
    (CLIENT_REQUEST, "repro.client:RemoteResult", "page", {"when": lambda self, n: n > 0}),
    (CLIENT_REQUEST, "repro.client:RemoteResult", "delete"),
]

#: Every per-layer metric a traced run reports, with its unit.  Times
#: are self seconds per op of the traced part; volumes are per op too.
LAYER_METRICS: dict[str, str] = {
    "flatfile.read_s": "s/op",
    "flatfile.tokenize_s": "s/op",
    "flatfile.gather_s": "s/op",
    "flatfile.parse_s": "s/op",
    "flatfile.bytes_read": "B/op",
    "flatfile.values_parsed": "1/op",
    "flatfile.io_retries": "count",
    "core.load_s": "s/op",
    "core.skip_s": "s/op",
    "core.zones_skipped_frac": "ratio",
    "core.result_cache_hit_rate": "ratio",
    "cracking.select_s": "s/op",
    "cracking.crack_s": "s/op",
    "cracking.engaged_frac": "ratio",
    "storage.load_s": "s/op",
    "storage.save_s": "s/op",
    "storage.save_stall_s": "s/op",
    "storage.restore_hit_rate": "ratio",
    "storage.store_bytes_per_data_byte": "ratio",
    "storage.evictions": "count",
    "sql.plan_s": "s/op",
    "execution.execute_s": "s/op",
    "result.materialize_s": "s/op",
    "result.serialize_s": "s/op",
    "result.rows_out": "rows/op",
    "server.dispatch_s": "s/op",
    "server.store_s": "s/op",
    "server.page_s": "s/op",
    "server.rejected": "count",
    "server.request_p95_ms": "ms",
    "server.request_p99_ms": "ms",
    "client.decode_s": "s/op",
    "client.wait_s": "s/op",
    "client.retries": "count",
    "unattributed_s": "s/op",
    "root_s": "s/op",
    "trace_overhead_frac": "ratio",
}


def self_metric(span_name: str) -> str:
    if span_name.startswith(ROOT_PREFIX):
        return "unattributed_s"
    if span_name == CLIENT_REQUEST:
        return "client.wait_s"
    return span_name + "_s"


class Tracer:
    """Wraps the targets, collects spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, before=None, after=None, when=None):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span = {
                "id": next(ids),
                "name": name,
                "parent": stack[-1] if stack else None,
                "thread": threading.current_thread().name,
            }
            if before is not None:
                span["note"] = before(*args, **kwargs)
            stack.append(span["id"])
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
                spans.append(span)
            if after is not None:
                span["note"] = after(result)
            return result

        return traced

    def install(self) -> None:
        for name, owner, attr, *options in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            kwargs = options[0] if options else {}
            if class_name:
                self._patch_method(getattr(module, class_name), attr, name, kwargs)
            else:
                self._patch_function(getattr(module, attr), name, kwargs)

    def _patch_function(self, fn, name: str, kwargs: dict) -> None:
        """Replace ``fn`` under every module-level name bound to it:
        ``from x import f`` gives each importer its own name."""
        traced = self.wrap(fn, name, **kwargs)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").partition(".")[0] != "repro":
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, key, traced)

    def _patch_method(self, cls: type, attr: str, name: str, kwargs: dict) -> None:
        """Wrap ``attr`` where ``cls`` and each subclass define it."""
        if attr in vars(cls):
            raw = vars(cls)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                traced = type(raw)(self.wrap(raw.__func__, name, **kwargs))
            else:
                traced = self.wrap(raw, name, **kwargs)
            self._set(cls, attr, traced, raw)
        for sub in cls.__subclasses__():
            self._patch_method(sub, attr, name, kwargs)

    def _set(self, owner, attr: str, value, original=None) -> None:
        self._undo.append((owner, attr, original or getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        write_spans(path, list(self.spans))


def write_spans(path: Path, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as lines:
        return [json.loads(line) for line in lines]


# ----------------------------------------------------------------- analysis


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def join_server(
    spans: list[dict], server_spans: list[dict], clients: list[str]
) -> list[dict]:
    """Client spans plus the server spans their requests caused.

    Server ids are shifted past the client's.  Pool-thread query spans
    are adopted by the dispatch span that waited for them, dispatch spans
    of the timed ``clients`` get ``peer`` = the client request that
    caused them, and every other server span (set-up, ``/stats``) is
    dropped with its subtree.
    """
    shift = 1 + max((s["id"] for s in spans), default=0)
    for span in server_spans:
        span["id"] += shift
        if span["parent"] is not None:
            span["parent"] += shift

    dispatches = sorted(
        (s for s in server_spans if s["name"] == DISPATCH), key=lambda s: s["start"]
    )
    waiting = [d for d in dispatches if d["note"]["route"] == "POST /query"]
    for query in server_spans:
        if query["name"] != ROOT_PREFIX + "query" or query["parent"] is not None:
            continue
        holders = [
            d
            for d in waiting
            if d["start"] <= query["start"] and query["end"] <= d["end"]
        ]
        if holders:
            query["parent"] = holders[-1]["id"]
            waiting.remove(holders[-1])

    for client in clients:
        requests = sorted(
            (s for s in spans if s["name"] == CLIENT_REQUEST and s["thread"] == client),
            key=lambda s: s["start"],
        )
        served = [d for d in dispatches if d["note"]["client"] == client]
        for request, dispatch in zip(requests, served):
            dispatch["peer"] = request["id"]

    by_id = {s["id"]: s for s in server_spans}

    def caused_by_client(span: dict) -> bool:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return "peer" in span

    return spans + [s for s in server_spans if caused_by_client(s)]


def with_ops(spans: list[dict]) -> list[dict]:
    """Give every span ``op_id``: the id of the caller-side span at the
    root of its tree (through ``peer`` for server spans)."""
    by_id = {s["id"]: s for s in spans}

    def root(span: dict) -> int:
        while True:
            up = span["parent"] if span["parent"] is not None else span.get("peer")
            if up is None:
                return span["id"]
            span = by_id[up]

    for span in spans:
        span["op_id"] = root(span)
    return spans


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus what child (and peer) spans cover."""
    left = {s["id"]: _duration(s) for s in spans}
    for span in spans:
        up = span["parent"] if span["parent"] is not None else span.get("peer")
        if up is not None:
            left[up] -= _duration(span)
    return left


def layer_metrics(
    spans: list[dict], ops: int, counters: Counter, gauges: dict, overhead: float
) -> dict[str, float]:
    """The ``LAYER_METRICS`` of one traced part.

    ``spans`` went through ``join_server``/``with_ops``; ``ops`` is the
    number of ops the traced part attempted; ``counters``/``gauges`` are
    what the workload read from ``conn.stats()`` / ``/stats``.
    """
    ops = max(ops, 1)
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    left = self_times(spans)
    background = {s["id"] for s in spans if s["name"] == BACKGROUND and s["parent"] is None}
    for span in spans:
        metrics[self_metric(span["name"])] += left[span["id"]] / ops
        if span["parent"] is None and "peer" not in span and span["id"] not in background:
            metrics["root_s"] += _duration(span) / ops

    zones = kept = 0
    for span in spans:
        if span["name"] == "core.skip" and span.get("note"):
            zones += span["note"]["zones"]
            kept += span["note"]["kept"]
    metrics["core.zones_skipped_frac"] = _ratio(zones - kept, zones)

    queries = {s["id"] for s in spans if s["name"] == ROOT_PREFIX + "query"}
    by_id = {s["id"]: s for s in spans}
    cracked = set()
    for span in spans:
        if span["name"] == "cracking.select":
            while span["id"] not in queries and span["parent"] is not None:
                span = by_id[span["parent"]]
            cracked.add(span["id"])
    metrics["cracking.engaged_frac"] = _ratio(len(cracked & queries), len(queries))

    served = [_duration(s) * 1e3 for s in spans if s["name"] == DISPATCH]
    if served:
        metrics["server.request_p95_ms"] = float(np.percentile(served, 95))
        metrics["server.request_p99_ms"] = float(np.percentile(served, 99))

    hits, misses = counters["result_cache_hits"], counters["result_cache_misses"]
    metrics["core.result_cache_hit_rate"] = _ratio(hits, hits + misses)
    metrics["storage.restore_hit_rate"] = _ratio(
        counters["restart_warm_hits"], counters["connects"]
    )
    metrics["storage.store_bytes_per_data_byte"] = _ratio(
        gauges.get("store_bytes", 0), gauges.get("data_bytes", 0)
    )
    metrics["flatfile.bytes_read"] = counters["total_file_bytes"] / ops
    metrics["flatfile.values_parsed"] = counters["total_values_parsed"] / ops
    metrics["flatfile.io_retries"] = counters["io_retries"]
    metrics["storage.evictions"] = counters["evictions"]
    metrics["server.rejected"] = counters["rejected"]
    metrics["client.retries"] = counters["client_retries"]
    metrics["result.rows_out"] = counters["rows_out"] / ops
    metrics["trace_overhead_frac"] = overhead
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
