"""Engine configuration.

:class:`EngineConfig` gathers every knob of the adaptive engine in one
immutable-ish dataclass so that experiments can be described declaratively:
the loading policy name, the adaptive-store memory budget, the tokenizer
and skipping toggles and the persistent store.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultPlan

#: Loading policies understood by the engine.  Mirrors the curves of the
#: paper's figures: ``fullload`` is plain MonetDB, ``external`` the MySQL
#: CSV engine, and the rest are the adaptive operators of sections 3-4.
POLICIES = (
    "fullload",
    "external",
    "column_loads",
    "partial_v1",
    "partial_v2",
    "splitfiles",
)


@dataclass
class EngineConfig:
    """All tunables of :class:`repro.core.engine.NoDBEngine`.

    Parameters
    ----------
    policy:
        One of :data:`POLICIES`.  Selects how (and whether) raw data is
        brought into the adaptive store during query processing.
    memory_budget_bytes:
        Upper bound on resident adaptive-store bytes.  ``None`` means
        unbounded.  When the budget would be exceeded, least-recently-used
        fragments are evicted (paper section 5.1.3, "Life-time").
    use_positional_map:
        Learn byte offsets of rows/fields while tokenizing and use them to
        jump directly to needed attributes in later loads (section 4.1.5).
    selective_reads:
        When the positional map already knows the byte range of every field
        a pass needs, read only those ranges from the file (coalesced into
        batched window reads) and gather the fields vectorized, instead of
        re-reading and re-tokenizing the whole file.  Requires
        ``use_positional_map``; off is the ablation baseline.
    predicate_pushdown:
        Apply WHERE predicates while parsing, abandoning a row as soon as
        one conjunct fails (the "Partial Loads" trick of section 3.2).
    zone_maps:
        Learn per-zone (fixed row range) min/max/null-count statistics
        for numeric columns as a side effect of full-row passes, and use
        them on the selective-read path to skip the window reads of
        zones a range predicate cannot match.  Off is the ablation
        baseline.
    zone_map_rows:
        Rows per zone.  Smaller zones skip more precisely but cost more
        statistics; the default keeps the statistics a negligible
        fraction of the column.
    cracking:
        Allow warm queries over fully resident numeric columns to build
        and use a :class:`~repro.cracking.cracker.CrackerColumn` per hot
        predicate column, answering range selections from the cracker
        index instead of full-column masks.  Crackers are budgeted by
        the memory manager and invalidated with the rest of the learned
        state when the source file changes.
    crack_after:
        Build a column's cracker once the monitor has seen this many
        warm range scans against it (``1`` cracks eagerly; higher values
        make one-off predicates stay on the cheap mask route).
    io_bandwidth_bytes_per_sec:
        Optional simulated I/O throttle.  When set, every read of ``n``
        bytes from a flat file additionally sleeps ``n / bandwidth``
        seconds.  Used by the Figure 1a bench to recreate the memory-wall
        knee of loading cost without a real 1-billion-tuple table.
    store_dir:
        Root of the **persistent adaptive store**: a fingerprint-keyed
        on-disk cache of learned state (positional-map field spans,
        widened schemas, zone maps, fully loaded columns).  A fresh engine
        pointed at a warm ``store_dir`` restores a table restart-warm —
        numeric columns come back as shared read-only mapped arrays —
        instead of re-paying the cold scan; entries are written
        off the query path after a cold load and invalidated whenever
        the source file's fingerprint changes.  ``None`` (default)
        disables persistence.
    result_cache:
        Cache completed query results keyed by (normalized statement,
        file signature) and serve byte-identical repeats without loading
        or executing anything.  Cached bytes are charged to
        ``memory_budget_bytes`` and invalidated by the same staleness
        path that drops positional maps.  Off by default: result reuse
        changes the per-query work counters the paper's figures measure.
    max_cached_results:
        Entry cap of the result cache (least recently used beyond it is
        dropped).
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` compiled into the
        engine's real I/O paths for deterministic failure testing.  When
        unset, the ``REPRO_FAULTS`` environment hook is consulted once
        at engine construction (see :mod:`repro.faults`).  Production
        deployments leave both unset: every fault check is then a dict
        miss.
    global_lock:
        Serialize the whole load/metadata phase through one engine-wide
        lock — the paper section 5.4 "simple solution", kept as the
        baseline for `benchmarks/bench_concurrent.py` and as an escape
        hatch.  Off by default: per-table reader–writer locking lets
        queries over distinct tables (and warm queries over the same
        table) proceed fully in parallel.
    """

    policy: str = "column_loads"
    memory_budget_bytes: int | None = None
    use_positional_map: bool = True
    selective_reads: bool = True
    predicate_pushdown: bool = True
    zone_maps: bool = True
    zone_map_rows: int = 1024
    cracking: bool = True
    crack_after: int = 3
    io_bandwidth_bytes_per_sec: float | None = None
    store_dir: Path | None = None
    result_cache: bool = False
    max_cached_results: int = 256
    global_lock: bool = False
    fault_plan: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; expected one of {POLICIES}")
        if self.memory_budget_bytes is not None and self.memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive or None")
        if self.zone_map_rows <= 0:
            raise ValueError("zone_map_rows must be positive")
        if self.crack_after < 1:
            raise ValueError("crack_after must be >= 1")
        if self.max_cached_results <= 0:
            raise ValueError("max_cached_results must be positive")
        if self.store_dir is not None:
            self.store_dir = Path(self.store_dir)
