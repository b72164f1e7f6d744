"""The exported surface of ``repro`` is a contract — assert it exactly.

Satellite of the serving-layer redesign: ``repro.__all__`` *is* the
supported API.  This suite pins the export list, the error taxonomy's
wire codes, and the ``connect()`` facade semantics, so accidental
additions or removals fail loudly in review.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import table_names_for
from repro.errors import ERROR_CODES, ReproError, error_from_payload

EXPECTED_EXPORTS = {
    # facade
    "Connection",
    "connect",
    # engines
    "NoDBEngine",
    # baselines (oracle reference, not the application path)
    "AwkEngine",
    "CSVEngine",
    # configuration
    "EngineConfig",
    "POLICIES",
    # results
    "QueryResult",
    # error taxonomy
    "BadRequestError",
    "BindError",
    "BudgetExceededError",
    "CatalogError",
    "ExecutionError",
    "FlatFileError",
    "FormatDetectionError",
    "NotFoundError",
    "OverloadedError",
    "QueryTimeoutError",
    "ReproError",
    "SQLSyntaxError",
    "SchemaInferenceError",
    "StaleFileError",
    "TableConflictError",
    "UnknownResultError",
    "UnsupportedSQLError",
    # metadata
    "__version__",
}

EXPECTED_CODES = {
    "sql_syntax": 400,
    "sql_unsupported": 400,
    "bind": 400,
    "bad_request": 400,
    "catalog": 404,
    "not_found": 404,
    "unknown_result": 404,
    "table_conflict": 409,
    "stale_file": 409,
    "flat_file": 422,
    "schema_inference": 422,
    "format_detection": 422,
    "overloaded": 429,
    "internal": 500,
    "internal_error": 500,
    "execution": 500,
    "budget_exceeded": 503,
    "draining": 503,
    "query_timeout": 504,
}


def test_all_is_exactly_the_supported_surface():
    assert set(repro.__all__) == EXPECTED_EXPORTS
    for name in repro.__all__:
        assert getattr(repro, name) is not None, f"{name} exported but missing"


def test_every_exported_error_subclasses_reproerror():
    errors = [
        getattr(repro, name)
        for name in repro.__all__
        if name.endswith("Error")
    ]
    assert all(issubclass(cls, ReproError) for cls in errors)


def test_wire_codes_and_http_statuses_are_stable():
    # Codes are wire protocol: renaming one is a breaking change.
    assert {c: cls.http_status for c, cls in ERROR_CODES.items()} == {
        c: s for c, s in EXPECTED_CODES.items() if c != "internal"
    }
    assert ReproError.code == "internal"
    assert ReproError.http_status == 500


def test_error_payload_roundtrip():
    for cls in ERROR_CODES.values():
        exc = cls.__new__(cls)
        ReproError.__init__(exc, "boom")
        payload = exc.to_payload()
        back = error_from_payload(payload)
        assert type(back) is cls
        assert back.message == "boom"
    unknown = error_from_payload({"error": "from_the_future", "message": "hm"})
    assert type(unknown) is ReproError


def test_connect_single_file_attaches_as_t(small_csv):
    with repro.connect(small_csv) as conn:
        assert conn.tables() == ["t"]
        assert conn.execute("select count(*) from t").rows() == [(500,)]
        assert conn.stats()["queries"] == 1


def test_connect_many_files_attach_as_t1_tn(small_csv, wide_csv):
    assert table_names_for(1) == ["t"]
    assert table_names_for(3) == ["t1", "t2", "t3"]
    with repro.connect(small_csv, wide_csv) as conn:
        assert conn.tables() == ["t1", "t2"]


def test_connect_rejects_mixed_local_and_remote_arguments(small_csv):
    with pytest.raises(ValueError):
        repro.connect(small_csv, url="http://localhost:1")
    with pytest.raises(ValueError):
        repro.connect(small_csv, config=repro.EngineConfig(), policy="fullload")


def test_connection_close_is_idempotent(small_csv):
    conn = repro.connect(small_csv, policy="column_loads")
    assert conn.engine.config.policy == "column_loads"
    conn.close()
    conn.close()


def test_connect_url_returns_remote_connection():
    from repro.client import RemoteConnection

    conn = repro.connect(url="http://127.0.0.1:1/")
    assert isinstance(conn, RemoteConnection)
    assert conn.url == "http://127.0.0.1:1"
