"""The HTTP/JSON query server wrapping one shared adaptive engine.

Stdlib only (``http.server.ThreadingHTTPServer``): a long-lived process
speaking a small wire protocol over the engine's public surface.

Endpoints
---------

========  ==============================  ===========================================
method    path                            action
========  ==============================  ===========================================
POST      ``/query``                      run SQL; returns a result handle + page 0
GET       ``/results/<id>``               metadata of a stored result resource
GET       ``/results/<id>/pages/<n>``     one bounded page of a stored result
DELETE    ``/results/<id>``               drop a stored result resource
GET       ``/tables``                     list attached tables
POST      ``/tables``                     attach a file (idempotent for identical re-attach)
GET       ``/tables/<name>``              schema + per-column warmth of one table
DELETE    ``/tables/<name>``              detach
GET       ``/stats``                      engine/memory/admission/result counters
GET       ``/health``                     liveness probe
========  ==============================  ===========================================

Every error response is the :meth:`repro.errors.ReproError.to_payload`
form under the class's HTTP status — malformed SQL (400), unknown tables
or expired results (404), overload (429 + ``Retry-After``), query
timeouts (504) and engine faults (5xx) are distinguishable on the wire
by their stable ``error`` code.  Results never fully serialize into one
response: ``POST /query`` returns the first page plus a result id, and
the rest is fetched page by page (page size capped server-side).
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from shutil import rmtree
from typing import Any

from repro.core.engine import NoDBEngine
from repro.errors import (
    BadRequestError,
    CatalogError,
    DrainingError,
    InternalServerError,
    NotFoundError,
    QueryTimeoutError,
    ReproError,
    TableConflictError,
)
from repro.result import QueryResult
from repro.server.admission import AdmissionController
from repro.server.results import ResultManager

#: Hard ceiling on ``page_size`` a client may request; the server clamps
#: rather than errors so a greedy client degrades instead of failing.
DEFAULT_PAGE_SIZE_CAP = 10_000
DEFAULT_PAGE_SIZE = 1_000


def _page_payload(meta: dict, page: QueryResult, n: int) -> dict:
    body = page.to_json_dict()
    body["page"] = n
    body["num_pages"] = meta["num_pages"]
    body["result_id"] = meta["result_id"]
    body["total_rows"] = meta["num_rows"]
    return body


class ReproServer:
    """One engine, many clients: the HTTP serving layer.

    ``port=0`` binds an ephemeral port (read :attr:`url` after
    construction).  :meth:`start` serves on a background thread;
    :meth:`serve_forever` serves on the calling thread; :meth:`close`
    shuts down the listener, drains the query pool and releases
    server-owned scratch space (the engine itself is *not* closed unless
    ``owns_engine=True`` — callers may keep using it in-process).
    """

    def __init__(
        self,
        engine: NoDBEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        default_page_size: int = DEFAULT_PAGE_SIZE,
        page_size_cap: int = DEFAULT_PAGE_SIZE_CAP,
        max_inflight: int = 8,
        max_inflight_per_client: int = 4,
        query_timeout_s: float = 30.0,
        result_ttl_s: float = 300.0,
        max_results: int = 256,
        results_dir: Path | str | None = None,
        owns_engine: bool = False,
    ) -> None:
        if default_page_size <= 0 or page_size_cap <= 0:
            raise ValueError("page sizes must be positive")
        if query_timeout_s <= 0:
            raise ValueError("query_timeout_s must be positive")
        self.engine = engine
        self.owns_engine = owns_engine
        self.default_page_size = min(default_page_size, page_size_cap)
        self.page_size_cap = page_size_cap
        self.query_timeout_s = query_timeout_s
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            max_inflight_per_client=max_inflight_per_client,
        )
        # Result resources live beside the persistent adaptive store when
        # one is configured (they are durable, addressable state of the
        # same kind); otherwise in server-owned scratch space.
        self._owns_results_dir = False
        if results_dir is None:
            if engine.config.store_dir is not None:
                results_dir = engine.config.store_dir / "results"
            else:
                results_dir = Path(tempfile.mkdtemp(prefix="repro-results-"))
                self._owns_results_dir = True
        self.results = ResultManager(
            results_dir,
            memory=engine.memory,
            ttl_s=result_ttl_s,
            max_results=max_results,
            fault_plan=engine.fault_plan,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-query"
        )
        self._started_at = time.time()
        self._requests = 0
        self._requests_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._serving = False
        self._closed = False
        # Graceful drain: when set, mutating routes are rejected with
        # 503 + Retry-After while in-flight requests run to completion.
        self._draining = False
        self._drained_requests = 0
        self._active_requests = 0
        self._active_cv = threading.Condition()
        # Serializes close(): a drain thread and the owner's __exit__
        # may race here, and the loser must *block* until teardown is
        # genuinely complete, not skip past a half-closed server.
        self._close_lock = threading.Lock()
        self._http = ThreadingHTTPServer((host, port), _Handler)
        self._http.daemon_threads = True
        self._http.repro = self  # type: ignore[attr-defined]

    # ------------------------------------------------------------ address

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ---------------------------------------------------------- lifecycle

    def start(self) -> "ReproServer":
        """Serve on a daemon thread; returns self (for chaining)."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._http.serve_forever,
                name="repro-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._serving = True
        self._http.serve_forever()

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_request(self) -> None:
        with self._active_cv:
            self._active_requests += 1

    def end_request(self) -> None:
        with self._active_cv:
            self._active_requests -= 1
            if self._active_requests <= 0:
                self._active_cv.notify_all()

    def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown: finish in-flight requests, refuse new work.

        Sets the draining flag (mutating routes then answer 503 +
        ``Retry-After``; ``/health`` reports ``draining``), waits until
        every in-flight request has been answered (up to ``timeout_s``;
        ``None`` waits indefinitely), then closes the listener and the
        query pool.  Returns ``True`` when everything in flight finished
        before the deadline.  Idempotent and safe from any thread except
        one currently inside :meth:`serve_forever`.
        """
        with self._active_cv:
            self._draining = True
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        drained = True
        with self._active_cv:
            while self._active_requests > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        drained = False
                        break
                self._active_cv.wait(timeout=remaining)
        self.close()
        return drained

    def close(self) -> None:
        with self._close_lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._closed:
            return
        self._closed = True
        # shutdown() blocks on serve_forever()'s exit handshake, so it
        # must only run once serving actually began.
        if self._serving:
            self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._pool.shutdown(wait=True)
        if self._owns_results_dir:
            self.results.clear()
            rmtree(self.results.directory, ignore_errors=True)
        if self.owns_engine:
            self.engine.close()

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- dispatch

    def dispatch(
        self, method: str, parts: list[str], body: dict, client: str
    ) -> tuple[int, dict, dict[str, str]]:
        """Route one request; returns (status, payload, extra headers)."""
        with self._requests_lock:
            self._requests += 1
        if self.engine.fault_plan is not None:
            # Simulates an unexpected handler crash: the injected
            # OSError is not a ReproError, so the wire adapter maps it
            # to the stable ``internal_error`` payload.
            self.engine.fault_plan.check("server.request")
        if self._draining and self._refused_while_draining(method, parts):
            with self._requests_lock:
                self._drained_requests += 1
            raise DrainingError(
                "server is draining; retry against a replacement process",
                retry_after_s=1.0,
            )
        if parts == ["query"] and method == "POST":
            return self._post_query(body, client)
        if len(parts) >= 1 and parts[0] == "results":
            return self._results_route(method, parts[1:])
        if len(parts) >= 1 and parts[0] == "tables":
            return self._tables_route(method, parts[1:], body)
        if parts == ["stats"] and method == "GET":
            return 200, self.stats(), {}
        if parts == ["health"] and method == "GET":
            status = "draining" if self._draining else "ok"
            return 200, {"status": status, "uptime_s": time.time() - self._started_at}, {}
        raise NotFoundError(f"no route {method} /{'/'.join(parts)}")

    @staticmethod
    def _refused_while_draining(method: str, parts: list[str]) -> bool:
        """New work is refused during drain; reads keep being served.

        ``POST /query`` and catalog mutation start new work; fetching
        pages of already-computed results (and deleting them) remains
        allowed so clients can finish collecting what they started.
        """
        if method == "POST":
            return True
        return method == "DELETE" and bool(parts) and parts[0] == "tables"

    # -------------------------------------------------------------- query

    def _clamped_page_size(self, body: dict) -> int:
        raw = body.get("page_size", self.default_page_size)
        if not isinstance(raw, int) or isinstance(raw, bool) or raw <= 0:
            raise BadRequestError(f"page_size must be a positive integer, got {raw!r}")
        return min(raw, self.page_size_cap)

    def _post_query(
        self, body: dict, client: str
    ) -> tuple[int, dict, dict[str, str]]:
        sql = body.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise BadRequestError("body must carry a non-empty 'sql' string")
        page_size = self._clamped_page_size(body)
        self.admission.acquire(client)
        # The slot is held until the engine is genuinely done with the
        # query — a timed-out request must keep occupying capacity while
        # its query still runs, or timeouts would defeat backpressure.
        # If submit itself fails (pool shut down mid-drain), the done
        # callback never runs, so the slot must be released here or it
        # leaks forever.
        try:
            future: Future[QueryResult] = self._pool.submit(self.engine.query, sql)
        except BaseException:
            self.admission.release(client)
            raise
        future.add_done_callback(lambda _f: self.admission.release(client))
        try:
            result = future.result(timeout=self.query_timeout_s)
        except FutureTimeoutError:
            future.cancel()  # clean no-op if it already started
            raise QueryTimeoutError(
                f"query exceeded the server timeout of {self.query_timeout_s:g}s"
            ) from None
        meta = self.results.store(result, page_size)
        payload = {
            "result": meta,
            "page": _page_payload(meta, result.page(0, page_size), 0),
            "stats": dict(result.stats),
        }
        return 200, payload, {}

    # ------------------------------------------------------------ results

    def _results_route(
        self, method: str, rest: list[str]
    ) -> tuple[int, dict, dict[str, str]]:
        if len(rest) == 1 and method == "GET":
            return 200, self.results.meta(rest[0]), {}
        if len(rest) == 1 and method == "DELETE":
            self.results.delete(rest[0])
            return 200, {"deleted": rest[0]}, {}
        if len(rest) == 3 and rest[1] == "pages" and method == "GET":
            try:
                n = int(rest[2])
            except ValueError:
                raise BadRequestError(f"page number must be an integer, got {rest[2]!r}")
            meta, page = self.results.page(rest[0], n)
            return 200, _page_payload(meta, page, n), {}
        raise NotFoundError(f"no route {method} /results/{'/'.join(rest)}")

    # ------------------------------------------------------------- tables

    def _tables_route(
        self, method: str, rest: list[str], body: dict
    ) -> tuple[int, dict, dict[str, str]]:
        if not rest:
            if method == "GET":
                return 200, {"tables": self.engine.tables()}, {}
            if method == "POST":
                return self._attach(body)
        elif len(rest) == 1:
            if method == "GET":
                return 200, self._describe_table(rest[0]), {}
            if method == "DELETE":
                self.engine.detach(rest[0])
                return 200, {"detached": rest[0]}, {}
        raise NotFoundError(f"no route {method} /tables/{'/'.join(rest)}")

    @staticmethod
    def _attach_options(body: dict) -> dict[str, Any]:
        fixed_widths = body.get("fixed_widths")
        if fixed_widths is not None:
            try:
                fixed_widths = tuple(int(w) for w in fixed_widths)
            except (TypeError, ValueError):
                raise BadRequestError(
                    f"fixed_widths must be a list of integers, got {fixed_widths!r}"
                )
        return {
            "delimiter": body.get("delimiter", ","),
            "format": body.get("format"),
            "fixed_widths": fixed_widths,
        }

    def _attach(self, body: dict) -> tuple[int, dict, dict[str, str]]:
        name = body.get("name")
        path = body.get("path")
        if not isinstance(name, str) or not name:
            raise BadRequestError("attach body must carry a table 'name'")
        if not isinstance(path, str) or not path:
            raise BadRequestError("attach body must carry a file 'path'")
        options = self._attach_options(body)
        # Idempotent for concurrent/repeated identical attaches: many
        # clients pointing the server at the same file must converge on
        # one attachment, not race to a duplicate-attach error.
        if self._matches_existing(name, path, options):
            return 200, {"attached": name, "existing": True}, {}
        try:
            self.engine.attach(name, path, **options)
        except CatalogError as exc:
            # Lost a race to an identical attach, or a true conflict.
            if self._matches_existing(name, path, options):
                return 200, {"attached": name, "existing": True}, {}
            raise TableConflictError(
                f"table {name!r} is already attached with different "
                "options or a different file"
            ) from exc
        return 201, {"attached": name, "existing": False}, {}

    def _matches_existing(self, name: str, path: str, options: dict) -> bool:
        try:
            entry = self.engine.catalog.get(name)
        except ReproError:
            return False
        file = entry.file
        fmt = options["format"]
        have_fmt = file.format if isinstance(file.format, (str, type(None))) else "custom"
        return (
            file.path == Path(path)
            and file.delimiter == options["delimiter"]
            and (have_fmt or None) == (fmt or None)
            and (file.fixed_widths or None)
            == (options["fixed_widths"] or None)
        )

    def _describe_table(self, name: str) -> dict:
        entry = self.engine.catalog.get(name)
        schema = self.engine.schema_of(name)
        fmt = entry.file.format
        info: dict[str, Any] = {
            "name": entry.name,
            "path": str(entry.file.path),
            "format": fmt if isinstance(fmt, (str, type(None))) else "custom",
            "delimiter": entry.file.delimiter,
            "columns": [{"name": n, "dtype": d} for n, d in schema],
        }
        # Warmth: what the adaptive store holds right now, read under the
        # table's shared lock so a concurrent load cannot tear the view.
        with entry.rwlock.read_locked():
            table = entry.table
            if table is None:
                info["warmth"] = {"state": "cold", "nrows": None, "loaded": {}}
            else:
                loaded = {
                    pc.name: {
                        "rows": int(pc.loaded_count),
                        "fully_loaded": bool(pc.is_fully_loaded),
                    }
                    for pc in table.columns.values()
                    if pc.loaded_count > 0
                }
                info["warmth"] = {
                    "state": "warm" if loaded else "cold",
                    "nrows": table.nrows,
                    "loaded": loaded,
                }
            info["positional_map_columns"] = entry.positional_map.known_columns()
        return info

    # -------------------------------------------------------------- stats

    def stats(self) -> dict:
        """The ``/stats`` payload (all sections JSON-safe snapshots)."""
        return {
            "engine": self.engine.stats.snapshot(),
            "memory": {
                "resident_bytes": self.engine.memory.resident_bytes,
                "mapped_bytes": self.engine.memory.mapped_bytes,
                "budget_bytes": self.engine.memory.budget_bytes,
                "evictions": self.engine.memory.stats.evictions,
            },
            "admission": self.admission.snapshot(),
            "results": self.results.snapshot(),
            "server": {
                "uptime_s": time.time() - self._started_at,
                "requests": self._requests,
                "page_size_cap": self.page_size_cap,
                "default_page_size": self.default_page_size,
                "query_timeout_s": self.query_timeout_s,
                "draining": self._draining,
                "drained_requests": self._drained_requests,
                "active_requests": self._active_requests,
            },
        }


class _Handler(BaseHTTPRequestHandler):
    """Thin wire adapter: parse, dispatch, serialize — no logic."""

    protocol_version = "HTTP/1.1"
    #: Quiet by default; ``ReproServer`` is often embedded in tests.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    @property
    def _app(self) -> ReproServer:
        return self.server.repro  # type: ignore[attr-defined]

    def _client_id(self) -> str:
        return self.headers.get("X-Repro-Client") or self.client_address[0]

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise BadRequestError("request body must be a JSON object")
        return body

    def _handle(self, method: str) -> None:
        app = self._app
        # In-flight accounting brackets the *whole* exchange (dispatch
        # and response write): drain() waits on it, so a request being
        # answered when SIGTERM lands always completes.
        app.begin_request()
        try:
            try:
                parts = [p for p in self.path.split("?", 1)[0].split("/") if p]
                body = self._read_body() if method in ("POST", "PUT") else {}
                status, payload, headers = app.dispatch(
                    method, parts, body, self._client_id()
                )
            except ReproError as exc:
                headers = {}
                retry_after = getattr(exc, "retry_after_s", None)
                if retry_after is not None:
                    headers["Retry-After"] = f"{max(1, round(retry_after))}"
                self._send_json(exc.http_status, exc.to_payload(), headers)
                return
            except Exception as exc:  # never leak a raw traceback to the wire
                mapped = InternalServerError(f"{exc.__class__.__name__}: {exc}")
                self._send_json(mapped.http_status, mapped.to_payload())
                return
            self._send_json(status, payload, headers)
        finally:
            app.end_request()

    def _send_json(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        head = [
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            *(f"{key}: {value}" for key, value in (headers or {}).items()),
        ]
        try:
            # Head and body leave in one send: split in two, the body
            # waits ~40 ms on a keep-alive connection for the client's
            # delayed ACK of the head (Nagle).
            self.wfile.write("\r\n".join(head + ["", ""]).encode("latin-1") + body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")


__all__ = ["ReproServer", "DEFAULT_PAGE_SIZE", "DEFAULT_PAGE_SIZE_CAP"]
