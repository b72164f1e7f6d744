"""Robustness monitoring and policy choice (paper section 5.5).

No loading policy wins everywhere: caching policies thrash when memory is
scarce or the workload never repeats; stateless policies waste work when
it does.  This example runs two adversarial workloads and shows the
robustness monitor diagnosing each mismatch and recommending the policy
the paper's analysis would pick.

Run:  python examples/policy_tuning.py
(set REPRO_EXAMPLE_ROWS to shrink the dataset, e.g. for CI smoke runs)

Each scenario only prints the monitor's advice; to follow it, as
``repro --auto`` does after every query::

    advice = engine.monitor.advise()
    if advice is not None:
        engine.set_policy(advice.switch_to)
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from repro import EngineConfig, NoDBEngine
from repro.workload import TableSpec, materialize_csv, make_q2

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "30000"))
#: One range query, repeated: the same columns every time.
REPEATED_SQL = (
    f"select sum(a1), avg(a2) from r where a1 > {ROWS // 60} and a1 < {ROWS * 3 // 10}"
)

def scenario_repeated_workload_on_stateless_policy(path: Path) -> None:
    print("scenario 1: a repetitive workload on the stateless CSV engine")
    engine = NoDBEngine(EngineConfig(policy="external"))
    engine.attach("r", path)
    for _ in range(8):
        engine.query(REPEATED_SQL)
    total = sum(q.elapsed_s for q in engine.stats.queries)
    print(f"  8 identical queries, {total * 1e3:.0f} ms total, "
          f"{engine.stats.queries_from_file} full re-parses")
    advice = engine.monitor.advise()
    assert advice is not None
    print(f"  monitor: switch to {advice.switch_to!r}\n    reason: {advice.reason}\n")
    engine.close()


def scenario_thrashing_cache(path: Path) -> None:
    print("scenario 2: column loads under a budget half the working set")
    one_column = ROWS * 8 + ROWS // 8 + 64
    engine = NoDBEngine(
        EngineConfig(policy="column_loads", memory_budget_bytes=one_column)
    )
    engine.attach("r", path)
    rng = np.random.default_rng(1)
    for i in range(8):
        col_a, col_b = (("a1", "a2"), ("a3", "a4"))[i % 2]
        engine.query(make_q2(ROWS, col_a, col_b, rng=rng).sql)
    print(
        f"  store hits: {engine.stats.queries_from_store}, "
        f"evictions: {engine.memory.stats.evictions}, "
        f"bytes evicted: {engine.memory.stats.bytes_evicted:,}"
    )
    advice = engine.monitor.advise()
    assert advice is not None
    print(f"  monitor: switch to {advice.switch_to!r}\n    reason: {advice.reason}\n")
    engine.close()


def scenario_well_matched(path: Path) -> None:
    print("scenario 3: the same repetitive workload on a caching policy")
    engine = NoDBEngine(EngineConfig(policy="column_loads"))
    engine.attach("r", path)
    for _ in range(8):
        engine.query(REPEATED_SQL)
    total = sum(q.elapsed_s for q in engine.stats.queries)
    print(f"  8 identical queries, {total * 1e3:.0f} ms total, "
          f"{engine.stats.queries_from_store} served from the store")
    print(f"  monitor: {engine.monitor.advise()!r} (healthy -> no advice)")
    engine.close()


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-tuning-"))
    path = materialize_csv(TableSpec(nrows=ROWS, ncols=4, seed=3), workdir / "r.csv")
    scenario_repeated_workload_on_stateless_policy(path)
    scenario_thrashing_cache(path)
    scenario_well_matched(path)


if __name__ == "__main__":
    main()
