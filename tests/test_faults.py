"""The fault-injection harness and the resilience paths it exercises.

Unit coverage of :mod:`repro.faults` (plans, specs, parsing, the retry
helper) plus integration coverage of each degraded mode: transient-read
retry, short-read detection, persist-failure degradation to warm-only
serving, restore-failure fallback to cold scans, and the parallel scan's
checked partition reads.  Every injected failure runs the *production*
handler; tests only lower the module constants that bound retries and
persist failures.
"""

from __future__ import annotations

import pytest

from repro import EngineConfig, NoDBEngine, faults
from repro.errors import FlatFileError
from repro.faults import (
    ENV_FAULTS,
    ENV_SEED,
    FAULT_POINTS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    retry_io,
)


@pytest.fixture(autouse=True)
def _no_retry_backoff(monkeypatch):
    """Retried reads need not sleep here."""
    monkeypatch.setattr(faults, "IO_RETRY_BACKOFF_S", 0.0)


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "data.csv"
    rows = "\n".join(f"{i},{i * 2},v{i}" for i in range(200))
    path.write_text("a1,a2,a3\n" + rows + "\n")
    return path


def _count(tmp_path_engine, sql="select count(*) from r"):
    return int(tmp_path_engine.query(sql).scalar())


# ---------------------------------------------------------------------------
# FaultPlan / FaultSpec units
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(times=-1)
        with pytest.raises(ValueError):
            FaultSpec(probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(after=-2)
        FaultSpec(times=None)  # persistent is legal

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultPlan({"flatfile.reed": FaultSpec()})
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.check("not.a.point")


class TestFaultPlan:
    def test_transient_fires_exactly_times(self):
        plan = FaultPlan({"flatfile.read": FaultSpec(times=2)})
        fired = 0
        for _ in range(10):
            try:
                plan.check("flatfile.read")
            except InjectedFault as exc:
                assert exc.point == "flatfile.read"
                fired += 1
        assert fired == 2
        assert plan.fired() == {"flatfile.read": 2}
        assert plan.snapshot()["points"]["flatfile.read"] == {
            "checks": 10,
            "fired": 2,
        }

    def test_persistent_always_fires(self):
        plan = FaultPlan({"persist.write": FaultSpec(times=None)})
        for _ in range(5):
            with pytest.raises(InjectedFault):
                plan.check("persist.write")

    def test_after_skips_leading_checks(self):
        plan = FaultPlan({"server.request": FaultSpec(times=1, after=3)})
        for _ in range(3):
            plan.check("server.request")  # not yet due
        with pytest.raises(InjectedFault):
            plan.check("server.request")

    def test_unconfigured_point_never_fires(self):
        plan = FaultPlan({"persist.write": FaultSpec(times=None)})
        for point in sorted(FAULT_POINTS - {"persist.write"}):
            plan.check(point)  # no-op

    def test_probability_is_seed_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan(
                {"flatfile.read": FaultSpec(times=None, probability=0.5)},
                seed=seed,
            )
            return [plan.should_fire("flatfile.read") for _ in range(64)]

        a, b = firing_pattern(7), firing_pattern(7)
        assert a == b
        assert any(a) and not all(a)  # actually probabilistic
        assert firing_pattern(8) != a  # and seed-sensitive

    def test_truncate_shortens_when_fired(self):
        plan = FaultPlan({"flatfile.short_read": FaultSpec(times=1)})
        data = b"0123456789"
        cut = plan.truncate("flatfile.short_read", data)
        assert 0 < len(cut) < len(data)
        assert data.startswith(cut)
        # Exhausted: subsequent reads come back whole.
        assert plan.truncate("flatfile.short_read", data) == data

    def test_injected_fault_is_oserror(self):
        exc = InjectedFault("persist.write", 3)
        assert isinstance(exc, OSError)
        assert exc.ordinal == 3


class TestParse:
    def test_grammar(self):
        plan = FaultPlan.parse(
            "flatfile.read=2, persist.write=*, server.request=1:0.5:4",
            seed=11,
        )
        assert plan.seed == 11
        assert plan.specs["flatfile.read"] == FaultSpec(times=2)
        assert plan.specs["persist.write"] == FaultSpec(times=None)
        assert plan.specs["server.request"] == FaultSpec(
            times=1, probability=0.5, after=4
        )

    def test_bare_point_means_once(self):
        assert FaultPlan.parse("results.write").specs["results.write"] == FaultSpec(
            times=1
        )

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("flatfile.read=1:2:3:4")
        with pytest.raises(ValueError):
            FaultPlan.parse("nonsense.point=1")

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({ENV_FAULTS: "  "}) is None
        plan = FaultPlan.from_env({ENV_FAULTS: "flatfile.read=3", ENV_SEED: "9"})
        assert plan.seed == 9
        assert plan.specs["flatfile.read"].times == 3


class TestRetryIO:
    def test_succeeds_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        retries = []
        got = retry_io(flaky, on_retry=lambda n, exc: retries.append(n))
        assert got == "ok"
        assert retries == [1, 2]

    def test_reraises_when_exhausted(self, monkeypatch):
        monkeypatch.setattr(faults, "IO_RETRY_ATTEMPTS", 2)
        calls = []

        def broken():
            calls.append(1)
            raise OSError("permanent")

        with pytest.raises(OSError, match="permanent"):
            retry_io(broken)
        assert len(calls) == 2

    def test_non_oserror_passes_through_immediately(self):
        calls = []

        def bug():
            calls.append(1)
            raise ValueError("not I/O")

        with pytest.raises(ValueError):
            retry_io(bug)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# flat-file resilience: retry + short reads
# ---------------------------------------------------------------------------


class TestFlatFileRetry:
    def test_transient_read_faults_are_retried_and_counted(self, csv_path):
        plan = FaultPlan({"flatfile.read": FaultSpec(times=2)})
        config = EngineConfig(fault_plan=plan)
        with NoDBEngine(config) as engine:
            engine.attach("r", csv_path)
            assert int(engine.query("select count(*) from r").scalar()) == 200
            qstats = engine.stats.last()
            assert qstats.io_retries >= 2
            assert engine.stats.snapshot()["counters"]["io_retries"] >= 2
        assert plan.fired()["flatfile.read"] == 2

    def test_persistent_read_fault_raises_taxonomy_error(self, csv_path):
        plan = FaultPlan({"flatfile.read": FaultSpec(times=None)})
        config = EngineConfig(fault_plan=plan)
        with NoDBEngine(config) as engine:
            engine.attach("r", csv_path)
            with pytest.raises(FlatFileError):
                engine.query("select count(*) from r")

    def test_short_read_detected_and_retried(self, csv_path):
        plan = FaultPlan({"flatfile.short_read": FaultSpec(times=1)})
        config = EngineConfig(fault_plan=plan)
        with NoDBEngine(config) as engine:
            engine.attach("r", csv_path)
            assert int(engine.query("select count(*) from r").scalar()) == 200
            assert engine.stats.last().io_retries >= 1

    def test_retry_attempts_bound_the_retries(self, csv_path, monkeypatch):
        # More consecutive faults than attempts: the query must fail.
        monkeypatch.setattr(faults, "IO_RETRY_ATTEMPTS", 2)
        plan = FaultPlan({"flatfile.read": FaultSpec(times=5)})
        with NoDBEngine(EngineConfig(fault_plan=plan)) as engine:
            engine.attach("r", csv_path)
            with pytest.raises(FlatFileError):
                engine.query("select count(*) from r")
        assert plan.fired()["flatfile.read"] == 2


# ---------------------------------------------------------------------------
# persistent-store resilience: degrade to warm-only
# ---------------------------------------------------------------------------


class TestPersistDegradation:
    def test_write_failures_never_fail_queries(self, tmp_path, csv_path):
        plan = FaultPlan({"persist.write": FaultSpec(times=None)})
        config = EngineConfig(store_dir=tmp_path / "store", fault_plan=plan)
        with NoDBEngine(config) as engine:
            engine.attach("r", csv_path)
            assert int(engine.query("select count(*) from r").scalar()) == 200
            engine.flush_persistent_store()  # must NOT raise: degraded mode
            snap = engine.stats.snapshot()["counters"]
            assert snap["persist_failures"] >= 1
            assert snap["persist_writes"] == 0
            # The query path is unharmed: warm serving still works.
            assert int(engine.query("select count(*) from r").scalar()) == 200

    def test_store_goes_read_only_after_consecutive_failures(
        self, tmp_path, csv_path, monkeypatch
    ):
        monkeypatch.setattr("repro.core.lifecycle.PERSIST_FAILURE_LIMIT", 2)
        plan = FaultPlan({"persist.write": FaultSpec(times=None)})
        config = EngineConfig(store_dir=tmp_path / "store", fault_plan=plan)
        other = tmp_path / "other.csv"
        other.write_text("b1\n1\n2\n3\n")
        with NoDBEngine(config) as engine:
            engine.attach("r", csv_path)
            engine.attach("s", other)
            engine.query("select count(*) from r")
            engine.query("select count(*) from s")
            engine.flush_persistent_store()
            assert engine.lifecycle.read_only
            failures_at_cutoff = engine.stats.snapshot()["counters"][
                "persist_failures"
            ]
            # Read-only store: new loads schedule no further writes.
            engine.clear_cache("r")
            engine.query("select count(*) from r")
            engine.flush_persistent_store()
            assert (
                engine.stats.snapshot()["counters"]["persist_failures"]
                == failures_at_cutoff
            )

    def test_restore_failure_falls_back_to_cold_scan(self, tmp_path, csv_path):
        store = tmp_path / "store"
        with NoDBEngine(EngineConfig(store_dir=store)) as warm:
            warm.attach("r", csv_path)
            warm.query("select count(*) from r")
            warm.flush_persistent_store()
        plan = FaultPlan({"persist.read": FaultSpec(times=1)})
        config = EngineConfig(store_dir=store, fault_plan=plan)
        with NoDBEngine(config) as engine:
            engine.attach("r", csv_path)
            assert int(engine.query("select count(*) from r").scalar()) == 200
            snap = engine.stats.snapshot()["counters"]
            assert snap["persist_failures"] >= 1
            assert snap["restart_warm_hits"] == 0
