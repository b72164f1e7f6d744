"""Exception hierarchy for the repro package — a *serializable* taxonomy.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one base class to handle anything the engine raises.  The
subclasses partition errors by subsystem: SQL text problems, catalog/binding
problems, flat-file problems, execution problems and serving-layer problems
(overload, timeouts, expired result resources).

Since the engine also serves queries over the network
(:mod:`repro.server`), every error class carries a **stable wire code**
(:attr:`ReproError.code`) and a default HTTP status
(:attr:`ReproError.http_status`), and every instance serializes to a
JSON-safe payload via :meth:`ReproError.to_payload`.  The inverse,
:func:`error_from_payload`, lets :mod:`repro.client` re-raise the *same*
exception class the engine raised on the server side — client errors
(4xx: bad SQL, unknown table), engine errors (5xx) and overload (429) are
distinguishable on the wire by code alone.

The code registry is append-only by convention: codes are part of the
public wire protocol and must never be renamed or reused.
"""

from __future__ import annotations

from typing import Any

#: Wire code -> exception class; populated by ``__init_subclass__``.
ERROR_CODES: dict[str, type["ReproError"]] = {}


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    ``code`` is the stable wire identifier of the class; ``http_status``
    is the HTTP status the server maps it to; ``details`` is an optional
    JSON-safe dict of structured context that travels with the message.
    """

    code: str = "internal"
    http_status: int = 500

    def __init__(self, message: str = "", **details: Any) -> None:
        super().__init__(message)
        self.details: dict[str, Any] = details

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # First class to claim a code wins; subclasses that do not
        # declare their own code inherit (and must not re-register) it.
        if "code" in cls.__dict__:
            ERROR_CODES.setdefault(cls.code, cls)

    @property
    def message(self) -> str:
        return str(self)

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe wire form: stable code, message, structured details."""
        return {
            "error": self.code,
            "message": str(self),
            "details": dict(self.details),
        }


def error_from_payload(payload: dict) -> ReproError:
    """Reconstruct the exception a :meth:`ReproError.to_payload` described.

    Unknown codes (a newer server, a proxy mangling the body) degrade to
    the :class:`ReproError` base so callers can still catch one class.
    """
    cls = ERROR_CODES.get(payload.get("error", ""), ReproError)
    exc = cls.__new__(cls)
    ReproError.__init__(exc, payload.get("message", ""))
    details = payload.get("details")
    if isinstance(details, dict):
        exc.details = details
        position = details.get("position")
        if isinstance(exc, SQLSyntaxError) and isinstance(position, int):
            exc.position = position
    return exc


class SQLSyntaxError(ReproError):
    """The SQL text could not be lexed or parsed.

    Carries the offending position so callers can point at the bad token.
    """

    code = "sql_syntax"
    http_status = 400

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message, position=position)
        self.position = position


class UnsupportedSQLError(ReproError):
    """The query is valid SQL but outside the implemented subset."""

    code = "sql_unsupported"
    http_status = 400


class BindError(ReproError):
    """A parsed query references unknown tables/columns or mis-typed ops."""

    code = "bind"
    http_status = 400


class CatalogError(ReproError):
    """Catalog-level problem: unknown table, duplicate attach, etc."""

    code = "catalog"
    http_status = 404


class TableConflictError(CatalogError):
    """An attach collides with an existing attachment of the same name
    under *different* parse options or a different file (re-attaching the
    identical file with identical options is idempotent, not a conflict).
    """

    code = "table_conflict"
    http_status = 409


class FlatFileError(ReproError):
    """A raw data file is missing, malformed, or changed underneath us."""

    code = "flat_file"
    http_status = 422


class SchemaInferenceError(FlatFileError):
    """The schema of a flat file could not be inferred."""

    code = "schema_inference"
    http_status = 422


class FormatDetectionError(FlatFileError):
    """The dialect sniffer could not pick a format for a flat file.

    Raised for empty files and for samples where the evidence is
    ambiguous (several delimiters split every line consistently).  The
    message always names the explicit fallback: pass ``--format`` /
    ``--delimiter`` (or ``attach(..., format=...)``) instead of sniffing.
    """

    code = "format_detection"
    http_status = 422


class StaleFileError(FlatFileError):
    """The flat file was edited after data was loaded from it.

    The engine no longer raises this: every edit it detects extends or
    invalidates the derived data (paper section 5.4).  The class stays
    because its ``stale_file`` wire code is part of the append-only
    registry.
    """

    code = "stale_file"
    http_status = 409


class ExecutionError(ReproError):
    """A physical operator failed while executing a plan."""

    code = "execution"
    http_status = 500


class BudgetExceededError(ReproError):
    """The adaptive store cannot satisfy a load within its memory budget."""

    code = "budget_exceeded"
    http_status = 503


class OverloadedError(ReproError):
    """Admission control rejected the request (server at capacity).

    Maps to HTTP 429; ``details["retry_after_s"]`` suggests a backoff.
    """

    code = "overloaded"
    http_status = 429

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message, retry_after_s=retry_after_s)
        self.retry_after_s = retry_after_s


class InternalServerError(ReproError):
    """An unexpected (non-taxonomy) exception escaped a request handler.

    The serving layer maps any such exception to this stable wire code
    so clients always receive a JSON taxonomy payload — never a raw
    stack trace or an HTML error page.
    """

    code = "internal_error"
    http_status = 500


class DrainingError(ReproError):
    """The server is draining: finishing in-flight queries, taking no
    new ones.  Maps to 503 + ``Retry-After`` — clients should back off
    and retry against the replacement process.
    """

    code = "draining"
    http_status = 503

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message, retry_after_s=retry_after_s)
        self.retry_after_s = retry_after_s


class QueryTimeoutError(ReproError):
    """A served query exceeded the server's request timeout."""

    code = "query_timeout"
    http_status = 504


class BadRequestError(ReproError):
    """A wire request is malformed (bad JSON body, missing fields, bad
    paging parameters) — client-side by definition, never the engine."""

    code = "bad_request"
    http_status = 400


class NotFoundError(ReproError):
    """The requested wire route or resource does not exist."""

    code = "not_found"
    http_status = 404


class UnknownResultError(ReproError):
    """No stored result resource has this id (never existed, expired, or
    evicted — result resources are disposable, like the adaptive store)."""

    code = "unknown_result"
    http_status = 404
