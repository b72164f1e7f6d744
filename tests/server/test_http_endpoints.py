"""End-to-end coverage of every wire endpoint and its error taxonomy."""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro import (
    BadRequestError,
    CatalogError,
    NotFoundError,
    SQLSyntaxError,
    TableConflictError,
)
from repro.client import RemoteConnection


def test_health_reports_liveness(remote):
    payload = remote.health()
    assert payload["status"] == "ok"
    assert payload["uptime_s"] >= 0


def test_keep_alive_requests_do_not_stall(served):
    # Head and body in two sends cost a persistent connection ~40 ms per
    # request (Nagle waits for the client's delayed ACK of the head).
    conn = http.client.HTTPConnection(served.host, served.port, timeout=10)
    try:
        start = time.perf_counter()
        for _ in range(20):
            conn.request("GET", "/health")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        took = time.perf_counter() - start
    finally:
        conn.close()
    assert took < 20 * 0.020, f"20 keep-alive requests took {took:.3f}s"


def test_tables_lists_attachments(remote):
    assert remote.tables() == ["r"]


def test_query_returns_rows_identical_to_engine(served, remote):
    sql = "select sum(a1), count(*) from r where a1 > 100"
    want = served.engine.query(sql).rows()
    got = remote.execute(sql).rows()
    assert got == want


def test_table_info_exposes_schema_and_warmth(remote):
    cold = remote.table_info("r")
    assert cold["warmth"]["state"] == "cold"
    assert [c["name"] for c in cold["columns"]] == ["a1", "a2", "a3", "a4"]
    assert remote.schema("r") == [(f"a{i}", "int64") for i in range(1, 5)]

    remote.execute("select a1 from r where a1 > 0")
    warm = remote.table_info("r")
    assert warm["warmth"]["state"] == "warm"
    assert warm["warmth"]["nrows"] == 500
    assert warm["warmth"]["loaded"]["a1"]["fully_loaded"] is True


def test_attach_detach_roundtrip(remote, served, wide_csv):
    remote.attach("w", wide_csv)
    assert remote.tables() == ["r", "w"]
    assert remote.execute("select count(*) from w").rows() == [(300,)]
    remote.detach("w")
    assert remote.tables() == ["r"]


def test_identical_reattach_is_idempotent(remote, small_csv):
    # The table is already attached server-side; an identical re-attach
    # must converge on the existing attachment, not 409.
    remote.attach("r", small_csv)
    assert remote.tables() == ["r"]


def test_conflicting_reattach_is_409(remote, small_csv, wide_csv):
    with pytest.raises(TableConflictError) as excinfo:
        remote.attach("r", wide_csv)
    assert excinfo.value.code == "table_conflict"
    assert excinfo.value.http_status == 409
    with pytest.raises(TableConflictError):
        remote.attach("r", small_csv, delimiter=";")


def test_malformed_sql_travels_as_sql_syntax(remote):
    with pytest.raises(SQLSyntaxError) as excinfo:
        remote.execute("selct a1 frm r")
    assert excinfo.value.code == "sql_syntax"
    assert excinfo.value.position >= 0


def test_unknown_table_travels_as_catalog_error(remote):
    with pytest.raises(CatalogError) as excinfo:
        remote.execute("select a1 from nosuch")
    assert excinfo.value.code == "catalog"


def test_unknown_route_is_404(remote):
    with pytest.raises(NotFoundError):
        remote._request("GET", "/nope")


def test_missing_sql_field_is_bad_request(remote):
    with pytest.raises(BadRequestError):
        remote._request("POST", "/query", {"sq": "select 1"})


def test_bad_page_size_is_bad_request(remote):
    for bad in (0, -1, "ten", True):
        with pytest.raises(BadRequestError):
            remote._request("POST", "/query", {"sql": "select a1 from r", "page_size": bad})


def test_page_size_is_clamped_to_server_cap(server_factory, small_csv):
    server = server_factory(page_size_cap=50)
    server.engine.attach("r", small_csv)
    remote = RemoteConnection(server.url)
    result = remote.execute("select a1 from r", page_size=10_000)
    assert result.page_size == 50
    assert result.num_pages == 10


def test_non_json_body_is_bad_request(served):
    request = urllib.request.Request(
        served.url + "/query",
        data=b"this is not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400
    payload = json.loads(excinfo.value.read())
    assert payload["error"] == "bad_request"


def test_invalid_utf8_travels_as_flat_file(server_factory, tmp_path):
    rows = [f"{i},{i * 2}".encode() for i in range(200)]
    rows[150] = b"150,\xe9"  # past the schema sample: the full pass decodes it
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\n".join(rows) + b"\n")
    server = server_factory()
    server.engine.attach("t", path)
    request = urllib.request.Request(
        server.url + "/query",
        data=json.dumps({"sql": "select sum(a1) from t"}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 422
    payload = json.loads(excinfo.value.read())
    assert payload["error"] == "flat_file"
    assert "not valid UTF-8" in payload["message"]


def test_stats_sections_are_json_safe(remote):
    remote.execute("select avg(a2) from r")
    stats = remote.stats()  # travelled as strict JSON already
    assert set(stats) == {"engine", "memory", "admission", "results", "server"}
    assert stats["engine"]["queries"] >= 1
    assert stats["engine"]["last_query"]["result_rows"] == 1
    assert stats["results"]["stored"] >= 1
    assert stats["admission"]["max_inflight"] == 8
    assert stats["server"]["requests"] >= 2
    json.dumps(stats, allow_nan=False)


def test_cli_stats_consume_snapshot_not_internals(served, remote):
    # /stats and the CLI read the same EngineStatistics.snapshot() dict.
    remote.execute("select count(*) from r")
    snap = served.engine.stats.snapshot()
    assert snap["queries"] == remote.stats()["engine"]["queries"]
    assert {"elapsed_s", "file_bytes_read", "rows_loaded"} <= set(snap["last_query"])
