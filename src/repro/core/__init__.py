"""The paper's contribution: adaptive, incremental, query-driven loading.

``repro.core`` wires the substrates together: the
:class:`~repro.core.engine.NoDBEngine` facade accepts attached flat files
and SQL, and a pluggable :class:`~repro.core.policies.LoadingPolicy`
decides — per query — what to read from the raw files, what to keep, and
what to serve from the adaptive store.
"""

from repro.core.engine import NoDBEngine
from repro.core.monitor import PolicyAdvice, RobustnessMonitor
from repro.core.policies import make_policy
from repro.core.statistics import EngineStatistics, QueryStats

__all__ = [
    "EngineStatistics",
    "NoDBEngine",
    "PolicyAdvice",
    "QueryStats",
    "RobustnessMonitor",
    "make_policy",
]
