"""Deterministic fault injection: seeded plans over named fault points.

The resilience story of this engine ("learned state is a cache; losing
it must never lose correctness") is only trustworthy if the failure
paths actually run.  This module provides the harness that runs them:

* a :class:`FaultPlan` — a seeded, thread-safe schedule of failures over
  **named fault points** (:data:`FAULT_POINTS`) compiled into the real
  production code paths.  When a plan decides a point fires, the code at
  that point raises :class:`InjectedFault` (an ``OSError`` subclass), so
  the *real* error handlers — retry loops, degraded modes, invalidation
  — execute, not test monkeypatches;
* :func:`retry_io` — the bounded retry-with-backoff helper the flat-file
  layer wraps its raw reads in;
* a ``REPRO_FAULTS`` environment hook (:meth:`FaultPlan.from_env`) so a
  whole served process — CLI, subprocess tests, staging — can run under
  a fault plan without code changes.

Fault points
------------

==================  ======================================================
point               where it fires
==================  ======================================================
flatfile.read       any raw read of a :class:`~repro.flatfile.files.FlatFile`
flatfile.short_read a raw read silently returns truncated bytes
persist.write       a persistent-store :meth:`save` (the writer thread)
persist.commit      a save whose array writes landed, before its manifest
                    swap (a crash leaves the old entry plus torn tails)
persist.read        a persistent-store :meth:`load` (restart-warm restore)
results.write       writing a result-resource file to disk
results.read        reloading a spilled result resource from disk
results.unlink      deleting a result-resource file during GC
server.request      an unexpected exception inside the HTTP dispatch
==================  ======================================================

Plans are deterministic: the same ``(specs, seed)`` fires the same
faults in the same order per point, regardless of wall clock — which is
what lets the chaos differential oracle replay a failing schedule.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping, TypeVar

#: Every fault point compiled into the production code paths.
FAULT_POINTS = frozenset(
    {
        "flatfile.read",
        "flatfile.short_read",
        "persist.write",
        "persist.commit",
        "persist.read",
        "results.write",
        "results.read",
        "results.unlink",
        "server.request",
    }
)

#: Environment variables read by :meth:`FaultPlan.from_env`.
ENV_FAULTS = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"


class InjectedFault(OSError):
    """The error a firing fault point raises.

    An ``OSError`` subclass so every *real* handler of disk trouble —
    ``except OSError`` retry loops, taxonomy wrapping, degraded modes —
    treats it exactly like the genuine article, while tests can still
    tell injected failures apart from real ones by type.
    """

    def __init__(self, point: str, ordinal: int) -> None:
        super().__init__(f"injected fault at {point!r} (#{ordinal})")
        self.point = point
        self.ordinal = ordinal


@dataclass(frozen=True)
class FaultSpec:
    """How one fault point misbehaves.

    ``times=None`` makes the fault *persistent* (every eligible check
    fires); an integer bounds it to that many firings (*transient*).
    ``probability`` gates each eligible check through the plan's seeded
    RNG; ``after`` skips the first N checks of the point entirely, so a
    fault can be scheduled mid-workload.
    """

    times: int | None = 1
    probability: float = 1.0
    after: int = 0

    def __post_init__(self) -> None:
        if self.times is not None and self.times < 0:
            raise ValueError(f"times must be >= 0 or None, got {self.times}")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")


class FaultPlan:
    """A seeded, thread-safe schedule of failures over named points."""

    def __init__(
        self, specs: Mapping[str, FaultSpec] | None = None, seed: int = 0
    ) -> None:
        specs = dict(specs or {})
        unknown = set(specs) - FAULT_POINTS
        if unknown:
            raise ValueError(
                f"unknown fault point(s) {sorted(unknown)!r}; "
                f"expected a subset of {sorted(FAULT_POINTS)}"
            )
        self.specs = specs
        self.seed = seed
        self._lock = threading.Lock()
        self._checks: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        # One RNG per point, seeded by (plan seed, point name): a point's
        # firing sequence never depends on how often *other* points are
        # checked, so schedules stay reproducible across code changes.
        self._rngs = {
            point: random.Random(f"{seed}:{point}") for point in specs
        }

    # ------------------------------------------------------------- firing

    def _due(self, point: str) -> int | None:
        """Ordinal of a firing at ``point``, or None (lock held inside)."""
        spec = self.specs.get(point)
        if spec is None:
            return None
        with self._lock:
            n = self._checks.get(point, 0)
            self._checks[point] = n + 1
            if n < spec.after:
                return None
            fired = self._fired.get(point, 0)
            if spec.times is not None and fired >= spec.times:
                return None
            if spec.probability < 1.0 and (
                self._rngs[point].random() >= spec.probability
            ):
                return None
            self._fired[point] = fired + 1
            return fired + 1

    def check(self, point: str) -> None:
        """Raise :class:`InjectedFault` when ``point`` is due to fire."""
        if point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {point!r}")
        ordinal = self._due(point)
        if ordinal is not None:
            raise InjectedFault(point, ordinal)

    def should_fire(self, point: str) -> bool:
        """Non-raising probe, for faults that corrupt rather than fail."""
        if point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {point!r}")
        return self._due(point) is not None

    def truncate(self, point: str, data: bytes) -> bytes:
        """Return ``data`` cut short when ``point`` fires (a short read)."""
        if len(data) > 0 and self.should_fire(point):
            return data[: len(data) - max(1, len(data) // 2)]
        return data

    # --------------------------------------------------------- inspection

    def fired(self) -> dict[str, int]:
        """How many times each point has fired so far."""
        with self._lock:
            return dict(self._fired)

    def snapshot(self) -> dict:
        """JSON-safe view: per-point checks and firings."""
        with self._lock:
            return {
                "seed": self.seed,
                "points": {
                    point: {
                        "checks": self._checks.get(point, 0),
                        "fired": self._fired.get(point, 0),
                    }
                    for point in sorted(self.specs)
                },
            }

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{p}×{'∞' if s.times is None else s.times}"
            for p, s in sorted(self.specs.items())
        )
        return f"<FaultPlan seed={self.seed} [{parts}]>"

    # ------------------------------------------------------------ parsing

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from a compact spec string.

        The grammar is one comma-separated clause per point::

            point[=times[:probability[:after]]]

        where ``times`` is an integer or ``*`` / ``inf`` for a
        persistent fault.  Examples::

            flatfile.read=2
            persist.write=*,flatfile.read=3:0.5
            server.request=1::4        (fire once, after 4 requests)
        """
        specs: dict[str, FaultSpec] = {}
        for clause in text.split(","):
            clause = clause.strip()
            if not clause:
                continue
            point, _, rest = clause.partition("=")
            point = point.strip()
            times: int | None = 1
            probability = 1.0
            after = 0
            if rest:
                fields = rest.split(":")
                if len(fields) > 3:
                    raise ValueError(f"malformed fault clause {clause!r}")
                raw_times = fields[0].strip()
                if raw_times in ("*", "inf", ""):
                    times = None if raw_times else 1
                else:
                    times = int(raw_times)
                if len(fields) > 1 and fields[1].strip():
                    probability = float(fields[1])
                if len(fields) > 2 and fields[2].strip():
                    after = int(fields[2])
            specs[point] = FaultSpec(
                times=times, probability=probability, after=after
            )
        return cls(specs, seed=seed)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "FaultPlan | None":
        """The plan described by ``REPRO_FAULTS``, or None when unset.

        ``REPRO_FAULTS_SEED`` (default 0) seeds the plan, so a chaos run
        in a subprocess — a served engine under test, a CI job — is
        reproducible from its environment alone.
        """
        environ = environ if environ is not None else os.environ
        text = environ.get(ENV_FAULTS, "").strip()
        if not text:
            return None
        return cls.parse(text, seed=int(environ.get(ENV_SEED, "0")))


# ---------------------------------------------------------------------------
# bounded retry
# ---------------------------------------------------------------------------

T = TypeVar("T")


#: Bounded retry of transient raw-file read errors: every flat-file read
#: is attempted this many times, sleeping :data:`IO_RETRY_BACKOFF_S`
#: seconds (doubling per retry) between attempts.
IO_RETRY_ATTEMPTS = 3
IO_RETRY_BACKOFF_S = 0.005


def retry_io(
    fn: Callable[[], T],
    *,
    on_retry: Callable[[int, OSError], None] | None = None,
) -> T:
    """Call ``fn``, retrying transient ``OSError`` with bounded backoff.

    Makes :data:`IO_RETRY_ATTEMPTS` attempts, read at call time; the last
    failure re-raises unchanged (callers wrap it into the taxonomy).
    ``on_retry(attempt, exc)`` is called before each sleep — the
    flat-file layer uses it to count ``io_retries``.
    """
    attempts = IO_RETRY_ATTEMPTS
    delay = IO_RETRY_BACKOFF_S
    for attempt in range(1, attempts + 1):
        try:
            return fn()
        except OSError as exc:
            if attempt >= attempts:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            time.sleep(delay)
            delay *= 2
    raise AssertionError("unreachable")  # pragma: no cover


__all__ = [
    "ENV_FAULTS",
    "ENV_SEED",
    "FAULT_POINTS",
    "FaultPlan",
    "FaultSpec",
    "IO_RETRY_ATTEMPTS",
    "IO_RETRY_BACKOFF_S",
    "InjectedFault",
    "retry_io",
]
