"""repro — a reproduction of the NoDB vision paper (CIDR 2011).

"Here are my Data Files.  Here are my Queries.  Where are my Results?"
by Idreos, Alagiannis, Johnson and Ailamaki.

Public API
----------

This module's ``__all__`` **is** the supported surface; everything else
in the package is private by convention (importable, but free to change
between versions).

:func:`connect` / :class:`Connection`
    The front door: ``repro.connect("data.csv")`` opens a local engine
    (files auto-attach as ``t`` / ``t1..tN``);
    ``repro.connect(url="http://host:port")`` opens the same surface
    against a running ``repro serve`` process.
:class:`NoDBEngine`
    The adaptive engine itself, for direct use: attach raw flat files,
    fire SQL immediately; data is loaded selectively, adaptively and
    incrementally as queries demand.  ``engine.monitor.advise()`` names
    a better loading policy when the workload calls for one, and
    ``engine.set_policy()`` applies it.
:class:`EngineConfig` / :data:`POLICIES`
    Engine knobs: loading policy, memory budget, tokenizer toggles,
    persistence and concurrency switches.
:class:`QueryResult`
    The columnar result type every engine returns — with a first-class
    paging API (``.rows()``, ``.pages(size)``) and an exact JSON-safe
    round-trip (``.to_json_dict()`` / ``.from_json_dict()``) used
    identically by the CLI and the HTTP server.
:class:`ReproError` and subclasses
    The serializable error taxonomy: every error carries a stable
    ``code`` (the wire identifier) and an HTTP status, so client
    errors, engine errors and overload are distinguishable anywhere.
:class:`CSVEngine`
    The paper's MySQL CSV engine baseline, kept as the *oracle* of the
    differential test suites — applications should use :func:`connect`
    instead.

The benchmark kit (the Awk baseline, dataset and query generators,
timing harness) lives outside the package, under ``benchmarks/``.

Quickstart::

    import repro

    with repro.connect("mydata.csv") as conn:
        result = conn.execute(
            "select sum(a1), avg(a2) from t where a1 > 100 and a1 < 900"
        )
        print(result)

Serving::

    PYTHONPATH=src python -m repro serve mydata.csv --port 8321
    # then, from any process:
    conn = repro.connect(url="http://127.0.0.1:8321")
"""

from repro.api import Connection, connect
from repro.baselines import CSVEngine
from repro.config import POLICIES, EngineConfig
from repro.core import NoDBEngine
from repro.errors import (
    BadRequestError,
    BindError,
    BudgetExceededError,
    CatalogError,
    ExecutionError,
    FlatFileError,
    FormatDetectionError,
    NotFoundError,
    OverloadedError,
    QueryTimeoutError,
    ReproError,
    SchemaInferenceError,
    SQLSyntaxError,
    StaleFileError,
    TableConflictError,
    UnknownResultError,
    UnsupportedSQLError,
)
from repro.result import QueryResult

__version__ = "1.1.0"

__all__ = [
    # facade
    "Connection",
    "connect",
    # engines
    "NoDBEngine",
    # baseline (oracle reference, not the application path)
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
]
