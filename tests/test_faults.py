"""Tests for deterministic fault injection and the resilience layer:
config parsing, injector determinism, the circuit-breaker state
machine, retry/backoff, and the end-to-end guarantees (zero overhead
when disabled, determinism, faults cost time but never correctness)."""

import dataclasses

import pytest

from repro.engine.execution import (
    BreakerState,
    CircuitBreaker,
    ResilienceManager,
    RetryPolicy,
)
from repro.faults import FAULT_CLASSES, FAULTS_ENV, FaultConfig, FaultInjector
from repro.harness.runner import run_workload
from repro.metrics import MetricsCollector
from repro.workloads import ssb


# ---------------------------------------------------------------------------
# FaultConfig
# ---------------------------------------------------------------------------

def _rates(config):
    return {name: getattr(config, name) for name in FAULT_CLASSES}


class TestFaultConfig:
    def test_defaults_are_disabled(self):
        config = FaultConfig()
        assert not config.enabled
        assert _rates(config) == {name: 0.0 for name in FAULT_CLASSES}

    def test_uniform_sets_every_class(self):
        config = FaultConfig.uniform(0.25, seed=11)
        assert config.enabled
        assert all(rate == 0.25 for rate in _rates(config).values())
        assert config.seed == 11

    def test_parse_key_value(self):
        config = FaultConfig.parse("pcie=0.01, kernel=0.005, seed=42")
        assert config.pcie == 0.01
        assert config.kernel == 0.005
        assert config.stall == 0.0
        assert config.seed == 42

    def test_parse_bare_rate_is_uniform(self):
        config = FaultConfig.parse("0.02")
        assert all(rate == 0.02 for rate in _rates(config).values())

    def test_parse_bare_rate_keeps_explicit_overrides(self):
        config = FaultConfig.parse("0.02,pcie=0.5")
        assert config.pcie == 0.5
        assert config.kernel == 0.02

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultConfig.parse("warp=0.1")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultConfig.parse("lots of faults please")

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="outside"):
            FaultConfig(pcie=1.5)
        with pytest.raises(ValueError):
            FaultConfig(kernel=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(breaker_threshold=0)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert FaultConfig.from_env() is None
        monkeypatch.setenv(FAULTS_ENV, "stall=0.3,seed=9")
        config = FaultConfig.from_env()
        assert config.stall == 0.3 and config.seed == 9

    def test_coerce(self):
        assert FaultConfig.coerce(None) is None
        config = FaultConfig.uniform(0.1)
        assert FaultConfig.coerce(config) is config
        assert FaultConfig.coerce("0.1").pcie == 0.1
        with pytest.raises(TypeError):
            FaultConfig.coerce(0.1)


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------

class TestFaultInjector:
    def test_same_seed_same_schedule(self):
        config = FaultConfig.uniform(0.3, seed=13)
        first = FaultInjector(config)
        second = FaultInjector(config)
        rolls_a = [first.roll("pcie", "gpu0") for _ in range(200)]
        rolls_b = [second.roll("pcie", "gpu0") for _ in range(200)]
        assert rolls_a == rolls_b
        assert first.schedule_digest() == second.schedule_digest()
        assert first.total_injected == second.total_injected > 0

    def test_different_seed_different_schedule(self):
        a = FaultInjector(FaultConfig.uniform(0.3, seed=1))
        b = FaultInjector(FaultConfig.uniform(0.3, seed=2))
        rolls_a = [a.roll("kernel", "gpu0") for _ in range(200)]
        rolls_b = [b.roll("kernel", "gpu0") for _ in range(200)]
        assert rolls_a != rolls_b

    def test_streams_are_independent_per_class(self):
        """Raising one class's rate must not shift another's schedule."""
        low = FaultInjector(FaultConfig(kernel=0.3, pcie=0.0, seed=7))
        high = FaultInjector(FaultConfig(kernel=0.3, pcie=1.0, seed=7))
        schedule_low = []
        schedule_high = []
        for _ in range(100):
            low.roll("pcie", "gpu0")
            high.roll("pcie", "gpu0")
            schedule_low.append(low.roll("kernel", "gpu0"))
            schedule_high.append(high.roll("kernel", "gpu0"))
        assert schedule_low == schedule_high

    def test_zero_rate_never_rolls_or_draws(self):
        injector = FaultInjector(FaultConfig(pcie=0.0, kernel=1.0))
        assert not any(injector.roll("pcie", "gpu0") for _ in range(50))
        assert injector.total_injected == 0
        # the pcie stream was never consumed: first draw matches a
        # fresh injector's
        fresh = FaultInjector(FaultConfig(pcie=0.0, kernel=1.0))
        assert injector.fraction("pcie") == fresh.fraction("pcie")

    def test_rate_one_always_injects(self):
        injector = FaultInjector(FaultConfig(reset=1.0))
        assert all(injector.roll("reset", "gpu0") for _ in range(20))
        assert injector.injected["reset"] == 20
        assert injector.injected_by_device[("reset", "gpu0")] == 20

    def test_digest_reflects_order_and_device(self):
        a = FaultInjector(FaultConfig.uniform(1.0, seed=3))
        b = FaultInjector(FaultConfig.uniform(1.0, seed=3))
        a.roll("pcie", "gpu0")
        a.roll("pcie", "gpu1")
        b.roll("pcie", "gpu1")
        b.roll("pcie", "gpu0")
        assert a.schedule_digest() != b.schedule_digest()

    def test_summary_omits_zero_classes(self):
        injector = FaultInjector(FaultConfig(stall=1.0))
        injector.roll("stall", "gpu0")
        assert injector.summary() == {"stall": 1}


# ---------------------------------------------------------------------------
# RetryPolicy / CircuitBreaker
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(max_retries=4, base_seconds=0.01,
                             multiplier=2.0)
        assert policy.backoff_seconds(0) == pytest.approx(0.01)
        assert policy.backoff_seconds(1) == pytest.approx(0.02)
        assert policy.backoff_seconds(3) == pytest.approx(0.08)


class TestCircuitBreaker:
    def make(self, **kwargs):
        transitions = []
        defaults = dict(threshold=3, open_seconds=1.0, probes=1)
        defaults.update(kwargs)
        breaker = CircuitBreaker(
            "gpu0",
            on_transition=lambda dev, old, new, now: transitions.append(
                (old, new, now)
            ),
            **defaults
        )
        return breaker, transitions

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, transitions = self.make()
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.2)
        assert breaker.state is BreakerState.OPEN
        assert transitions == [("closed", "open", 0.2)]
        assert not breaker.admit(0.3)
        assert not breaker.available(0.3)

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make()
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success(0.2)
        breaker.record_failure(0.3)
        breaker.record_failure(0.4)
        assert breaker.state is BreakerState.CLOSED

    def test_half_opens_after_cooldown_and_admits_probes(self):
        breaker, _ = self.make(probes=2)
        for t in (0.0, 0.1, 0.2):
            breaker.record_failure(t)
        assert not breaker.admit(0.5)
        assert breaker.available(1.3)  # past opened_at + open_seconds
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.admit(1.3)
        assert breaker.admit(1.3)
        assert not breaker.admit(1.3)  # probe budget exhausted

    def test_probe_success_closes(self):
        breaker, transitions = self.make()
        for t in (0.0, 0.1, 0.2):
            breaker.record_failure(t)
        assert breaker.admit(1.5)
        breaker.record_success(1.6)
        assert breaker.state is BreakerState.CLOSED
        assert [(old, new) for old, new, _ in transitions] == [
            ("closed", "open"), ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_probe_failure_reopens(self):
        breaker, _ = self.make()
        for t in (0.0, 0.1, 0.2):
            breaker.record_failure(t)
        assert breaker.admit(1.5)
        breaker.record_failure(1.6)
        assert breaker.state is BreakerState.OPEN
        # the cooldown restarts from the re-opening
        assert not breaker.available(1.7)
        assert breaker.available(2.7)


class TestResilienceManager:
    def test_inert_without_config(self):
        manager = ResilienceManager(config=None)
        assert not manager.enabled
        assert manager.admit("gpu0", 0.0)
        assert manager.available("gpu0", 0.0)
        assert manager.placement_penalty("gpu0", 0.0) == 0.0
        manager.record_failure("gpu0", 0.0)
        manager.record_success("gpu0", 0.0)
        assert manager.breaker_states() == {}  # no state was created

    def test_breaker_tuning_comes_from_config(self):
        config = FaultConfig.uniform(0.1, breaker_threshold=1,
                                     breaker_open_seconds=9.0,
                                     breaker_probes=4, max_retries=7)
        manager = ResilienceManager(config=config)
        assert manager.policy.max_retries == 7
        breaker = manager.breaker("gpu0")
        assert breaker.threshold == 1
        assert breaker.open_seconds == 9.0
        assert breaker.probes == 4

    def test_placement_penalty_infinite_while_open(self):
        manager = ResilienceManager(config=FaultConfig.uniform(
            0.1, breaker_threshold=1))
        manager.record_failure("gpu0", 0.0)
        assert manager.placement_penalty("gpu0", 0.0) == float("inf")
        assert not manager.available("gpu0", 0.0)
        assert manager.breaker_states() == {"gpu0": "open"}

    def test_transitions_land_in_metrics(self):
        metrics = MetricsCollector()
        manager = ResilienceManager(
            config=FaultConfig.uniform(0.1, breaker_threshold=1),
            metrics=metrics,
        )
        manager.record_failure("gpu0", 1.25)
        assert metrics.breaker_transitions == [
            ("gpu0", "closed", "open", 1.25)
        ]
        assert metrics.breaker_transition_counts()["open"] == 1


# ---------------------------------------------------------------------------
# End to end: the tentpole guarantees
# ---------------------------------------------------------------------------

def _run(database, faults, strategy="runtime", **kwargs):
    defaults = dict(users=2, repetitions=2, collect_results=True)
    defaults.update(kwargs)
    return run_workload(database, ssb.workload(database), strategy,
                        faults=faults, **defaults)


def _payload_rows(run):
    return {name: table.row_tuples() for name, table in run.results.items()}


HIGH_RATE = FaultConfig.uniform(0.5, seed=3, breaker_threshold=2,
                                breaker_open_seconds=0.01)


class TestEndToEnd:
    def test_zero_overhead_when_disabled(self, ssb_db):
        off = _run(ssb_db, faults=None)
        zero = _run(ssb_db, faults="pcie=0")  # all-zero spec
        assert off.seconds == zero.seconds
        assert _payload_rows(off) == _payload_rows(zero)
        assert zero.faults_injected == 0
        assert zero.fault_digest is None

    def test_same_seed_is_deterministic(self, ssb_db):
        first = _run(ssb_db, faults=HIGH_RATE)
        second = _run(ssb_db, faults=HIGH_RATE)
        assert first.faults_injected == second.faults_injected > 0
        assert first.fault_digest == second.fault_digest
        assert first.seconds == second.seconds
        assert _payload_rows(first) == _payload_rows(second)

    def test_different_seed_changes_the_schedule(self, ssb_db):
        first = _run(ssb_db, faults=HIGH_RATE)
        second = _run(ssb_db, faults=dataclasses.replace(HIGH_RATE, seed=99))
        assert first.fault_digest != second.fault_digest

    def test_faults_cost_time_never_correctness(self, ssb_db):
        clean = _run(ssb_db, faults=None)
        faulted = _run(ssb_db, faults=HIGH_RATE, validate=True)
        assert faulted.faults_injected > 0
        assert _payload_rows(faulted) == _payload_rows(clean)
        assert faulted.seconds >= clean.seconds

    def test_cpu_only_path_is_never_injected(self, ssb_db):
        run = run_workload(ssb_db, ssb.workload(ssb_db), "cpu_only",
                           faults=FaultConfig.uniform(1.0), users=2)
        assert run.faults_injected == 0
        assert run.metrics.aborts == 0

    def test_fault_accounting_reaches_the_metrics(self, ssb_db):
        run = _run(ssb_db, faults=HIGH_RATE)
        metrics = run.metrics
        assert metrics.aborts > 0
        assert sum(metrics.by("aborts", "fault").values()) == metrics.aborts
        assert metrics.retries > 0
        summary = metrics.fault_summary()
        assert summary["fault_aborts"] == metrics.aborts
        assert summary["retries"] == metrics.retries
        report = metrics.per_query_fault_report()
        assert sum(row["aborts"] for row in report.values()) \
            == metrics.aborts
        assert run.fault_classes is not None
        assert sum(run.fault_classes.values()) == run.faults_injected

    def test_trace_attributes_faults_to_devices(self, ssb_db):
        run = _run(ssb_db, faults=HIGH_RATE, trace=True)
        fault_events = [e for e in run.trace.events if e.aborted]
        assert fault_events
        assert all(e.fault for e in fault_events if e.fault != "oom")
        assert "aborts by fault@device" in run.trace.summary()

    def test_breakers_open_and_recover_under_sustained_faults(self, ssb_db):
        run = _run(ssb_db, faults=HIGH_RATE, repetitions=4)
        counts = run.metrics.breaker_transition_counts()
        assert counts["open"] > 0
        assert counts["half_open"] > 0
        # while open, placement skipped the device at least once
        assert run.metrics.total("breaker_skips") > 0

    def test_chopping_model_survives_faults(self, ssb_db):
        clean = _run(ssb_db, faults=None, strategy="chopping")
        faulted = _run(ssb_db, faults=HIGH_RATE, strategy="chopping",
                       validate=True)
        assert faulted.faults_injected > 0
        assert _payload_rows(faulted) == _payload_rows(clean)

    def test_degradation_stays_bounded_by_the_cpu_only_floor(self):
        """Graceful degradation (``repro figures chaos`` prints the
        curve): as the fault rate rises the makespan approaches the
        CPU-only floor — retries burn backoff and wasted work on top
        of the pure CPU path, hence the allowance — instead of
        diverging, every cell validated against the reference, and at
        the top rate the breakers demonstrably cycle."""
        from repro.harness import experiments as E

        sweep = E.chaos_sweep(fault_rates=(0.0, 0.02, 0.1), scale_factor=5,
                              users=2, repetitions=1, seed=7)
        *faulted, floor = sweep.rows
        assert floor["strategy"] == "cpu_only"
        assert [row["fault_rate"] for row in faulted] == [0.0, 0.02, 0.1]
        assert all(row["faults_injected"] > 0 for row in faulted[1:])
        assert all(row["seconds"] <= floor["seconds"] * 1.25
                   for row in faulted)
        top = faulted[-1]
        assert top["breaker_opens"] > 0 and top["breaker_half_opens"] > 0
