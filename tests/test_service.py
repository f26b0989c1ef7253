"""Service mode: open-system traffic, fair share, SLOs, epochs, chaos.

Satellite-3 composition coverage for the service harness: fair-share
admission x breakers x process chaos under streaming arrivals, with
the three invariants the ISSUE names spelled out as separate tests —
no tenant starves, epoch-pinned queries stay byte-identical under
concurrent appends, and overload with deadlines never double-counts
a query (conservation: arrivals == completed + shed + cancelled).
"""

import multiprocessing

import pytest

from repro.metrics import MetricsCollector
from repro.harness.service import (
    BEST_EFFORT,
    DEFAULT_CLASSES,
    PREMIUM,
    STANDARD,
    FairShareAdmission,
    ServiceConfig,
    SLOClass,
    TenantSpec,
    _DiurnalArrivals,
    _Request,
    build_tenants,
    run_service,
)
from repro.sim import Environment
from repro.engine.execution import QueryContext
from repro.storage import shm


FAST_QUERIES = ["Q1.1", "Q2.1"]


def small_service(**overrides):
    defaults = dict(
        duration_seconds=1.0, rate=200.0, tenants_per_class=1,
        max_inflight=3, seed=17,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def serve(ssb_db, service, **kwargs):
    kwargs.setdefault("query_names", FAST_QUERIES)
    return run_service(ssb_db, strategy="critical_path",
                       service=service, **kwargs)


# -- configuration validation -----------------------------------------


class TestConfigValidation:
    def test_default_classes_are_ordered_tiers(self):
        assert PREMIUM.weight > STANDARD.weight > BEST_EFFORT.weight
        assert (PREMIUM.deadline_multiplier
                > STANDARD.deadline_multiplier
                > BEST_EFFORT.deadline_multiplier)
        assert len(DEFAULT_CLASSES) == 3

    def test_bad_slo_class(self):
        with pytest.raises(ValueError):
            SLOClass("x", weight=0)
        with pytest.raises(ValueError):
            SLOClass("x", queue_cap=0)
        with pytest.raises(ValueError):
            SLOClass("x", overflow_policy="retry")

    def test_bad_service_config(self):
        with pytest.raises(ValueError):
            ServiceConfig(duration_seconds=0)
        with pytest.raises(ValueError):
            ServiceConfig(arrivals="bursty")
        for interval in (0, -1.0):
            with pytest.raises(ValueError, match="mutation_interval"):
                ServiceConfig(mutation_interval_seconds=interval)

    def test_targets_scale_per_class(self):
        service = ServiceConfig(latency_target_seconds=0.1)
        targets = service.targets()
        assert targets["premium"] == pytest.approx(0.4)
        assert targets["standard"] == pytest.approx(0.2)
        assert targets["best_effort"] == pytest.approx(0.1)
        assert ServiceConfig().targets() == {}

    def test_tenant_partition_shares_sum_to_one(self):
        tenants = build_tenants(ServiceConfig(tenants_per_class=3))
        assert len(tenants) == 9
        assert sum(t.share for t in tenants) == pytest.approx(1.0)
        names = {t.name for t in tenants}
        assert "premium-0" in names and "best_effort-2" in names


# -- arrival models ----------------------------------------------------


class TestArrivalModels:
    def test_diurnal_rate_floor(self):
        model = _DiurnalArrivals(rate=10.0, amplitude=0.99, period=4.0)
        # trough of the sine would drop to 0.1x; the floor holds at 5%
        assert model.rate_at(3.0) >= 0.5
        assert model.rate_at(1.0) == pytest.approx(10.0 * 1.99)


# -- fair-share admission (unit) --------------------------------------


def _tenant(name, slo, index=0):
    return TenantSpec(name=name, index=index, slo=slo, share=0.1)


def _request(env, tenant, arrived_at=0.0):
    qctx = QueryContext(env, "Q1.1", user=tenant.index,
                        tenant=tenant.name, slo_class=tenant.slo.name)
    return _Request(tenant, 0, arrived_at, qctx)


class TestFairShareAdmission:
    def test_drr_serves_weighted_shares(self):
        env = Environment()
        metrics = MetricsCollector()
        heavy = _tenant("premium-0", PREMIUM, 0)
        light = _tenant("best_effort-0", BEST_EFFORT, 1)
        fair = FairShareAdmission([heavy, light], quantum=1.0,
                                  starvation_seconds=100.0,
                                  metrics=metrics)
        for _ in range(16):
            fair.offer(_request(env, heavy))
            fair.offer(_request(env, light))
        served = [fair.next_request(0.0).tenant.name for _ in range(10)]
        # 4:1 weights -> premium gets ~4 of every 5 dispatch slots
        assert served.count("premium-0") >= 7
        assert served.count("best_effort-0") >= 1

    def test_starvation_guard_promotes_aged_head(self):
        env = Environment()
        metrics = MetricsCollector()
        heavy = _tenant("premium-0", PREMIUM, 0)
        light = _tenant("best_effort-0", BEST_EFFORT, 1)
        fair = FairShareAdmission([heavy, light], quantum=1.0,
                                  starvation_seconds=5.0,
                                  metrics=metrics)
        fair.offer(_request(env, light, arrived_at=0.0))
        for _ in range(8):
            fair.offer(_request(env, heavy, arrived_at=6.0))
        # at t=6 the best-effort head has waited 6s > 5s: it jumps the
        # premium backlog regardless of deficit state
        first = fair.next_request(6.0)
        assert first.tenant.name == "best_effort-0"
        assert metrics.total("starvation_promotions") == 1

    def test_shed_overflow_policy_at_queue_cap(self):
        env = Environment()
        metrics = MetricsCollector()
        tenant = _tenant("best_effort-0", BEST_EFFORT, 0)
        fair = FairShareAdmission([tenant], quantum=1.0,
                                  starvation_seconds=100.0,
                                  metrics=metrics)
        outcomes = [fair.offer(_request(env, tenant))
                    for _ in range(BEST_EFFORT.queue_cap + 2)]
        assert outcomes.count("queued") == BEST_EFFORT.queue_cap
        assert outcomes.count("shed") == 2
        assert metrics.by("sheds", "tenant")["best_effort-0"] == 2
        assert metrics.by("sheds", "slo_class")["best_effort"] == 2

    def test_degrade_overflow_queues_cpu_only(self):
        env = Environment()
        metrics = MetricsCollector()
        tenant = _tenant("standard-0", STANDARD, 0)
        fair = FairShareAdmission([tenant], quantum=1.0,
                                  starvation_seconds=100.0,
                                  metrics=metrics)
        for _ in range(STANDARD.queue_cap):
            assert fair.offer(_request(env, tenant)) == "queued"
        overflow = _request(env, tenant)
        assert fair.offer(overflow) == "degraded"
        assert overflow.overflow_degraded
        assert fair.pending() == STANDARD.queue_cap + 1
        assert metrics.by("degraded", "slo_class")["standard"] == 1

    def test_soft_cap_keeps_queueing(self):
        env = Environment()
        tenant = _tenant("premium-0", PREMIUM, 0)
        fair = FairShareAdmission([tenant], quantum=1.0,
                                  starvation_seconds=100.0,
                                  metrics=MetricsCollector())
        for _ in range(PREMIUM.queue_cap + 3):
            assert fair.offer(_request(env, tenant)) == "queued"
        assert fair.pending() == PREMIUM.queue_cap + 3


# -- integration: the service loop ------------------------------------


class TestServiceRuns:
    def test_every_arrival_is_accounted_for(self, ssb_db):
        result = serve(ssb_db, small_service())
        assert result.arrivals > 0
        assert result.conserved()
        assert result.identical
        assert result.metrics.slo_ledger()  # populated for service runs

    def test_no_tenant_starves_under_overload(self, ssb_db):
        service = small_service(rate=2000.0, duration_seconds=0.5,
                                tenants_per_class=2, max_inflight=2)
        result = serve(ssb_db, service)
        completed = {
            tenant: row.get("completed", 0.0)
            for tenant, row in result.tenant_ledger.items()
        }
        assert len(completed) == 6
        assert all(count >= 1 for count in completed.values()), completed
        assert result.conserved()

    def test_epoch_pinned_identity_under_concurrent_appends(self, ssb_db):
        service = small_service(duration_seconds=2.0, rate=100.0,
                                mutation_interval_seconds=0.5,
                                append_fraction=0.10)
        result = serve(ssb_db, service)
        assert result.epochs >= 2
        assert result.identical, result.divergences
        assert result.conserved()
        # drained superseded snapshots retired through the registry
        assert result.metrics.total("snapshots_retired") >= 1

    def test_overload_with_deadlines_conserves_every_arrival(self, ssb_db):
        # overload + deadlines: the conservation law is the double-count
        # detector — a query that was shed must not also complete, nor
        # be cancelled twice
        service = small_service(rate=3000.0, duration_seconds=0.5,
                                max_inflight=2, deadline_seconds=0.005)
        result = serve(ssb_db, service)
        assert result.shed > 0
        assert result.cancelled >= 0
        assert result.conserved(), (
            result.arrivals, result.completed, result.shed,
            result.cancelled)
        assert result.identical

    def test_sheds_fall_on_best_effort_before_premium(self, ssb_db):
        service = small_service(rate=3000.0, duration_seconds=0.5,
                                max_inflight=2)
        result = serve(ssb_db, service)
        ledger = result.ledger
        assert ledger["best_effort"]["shed"] > 0
        assert ledger["premium"]["shed"] == 0

    def test_composes_with_fault_storm_and_breakers(self, ssb_db):
        service = small_service(duration_seconds=1.0, rate=300.0,
                                mutation_interval_seconds=0.4,
                                deadline_seconds=0.05,
                                latency_target_seconds=0.02)
        result = serve(
            ssb_db, service,
            faults="pcie=0.05,heap=0.05,kernel=0.05,"
                   "breaker_threshold=3,seed=13",
        )
        assert result.faults_injected > 0
        assert result.epochs >= 2  # appends landed mid-storm
        assert result.identical, result.divergences[:3]
        assert result.conserved()
        # chaos blame lands on tenants
        assert result.tenant_faults
        assert any(row.get("aborts", 0) > 0
                   for row in result.tenant_faults.values())
        # the fault summary carries the per-tenant attribution keys
        summary = result.metrics.fault_summary()
        assert any(key.startswith("fault_aborts_") for key in summary)

    def test_deadlines_cancel_and_count(self, ssb_db):
        service = small_service(rate=2000.0, duration_seconds=0.4,
                                max_inflight=1,
                                deadline_seconds=0.002)
        result = serve(ssb_db, service)
        assert result.cancelled > 0
        assert result.conserved()
        ledger = result.ledger
        total_cancelled = sum(row["cancelled"] for row in ledger.values())
        assert total_cancelled == result.cancelled

    def test_wait_and_service_split_in_ledger(self, ssb_db):
        service = small_service(rate=2000.0, duration_seconds=0.4,
                                max_inflight=1,
                                latency_target_seconds=0.01)
        result = serve(ssb_db, service)
        busy = [row for row in result.ledger.values()
                if row["completed"] > 0]
        assert busy
        # under a 1-slot gate queue time dominates: wait is visible
        assert any(row["mean_wait"] > 0 for row in busy)
        assert all(row["mean_service"] > 0 for row in busy)

    def test_validation_accepts_the_rows_an_unordered_limit_kept(self):
        """The batch check accepts this query
        (tests/test_validation.py); the service checks every completion
        at the same one site, so it accepts it too."""
        from repro.workloads import sql_workload, ssb

        db = ssb.generate(1, data_scale=0.01, seed=7)
        sql = ("select c_city, s_city from customer, lineorder, supplier "
               "where lo_custkey = c_custkey and lo_suppkey = s_suppkey "
               "and c_nation = 'CHINA' and s_nation = 'CHINA' limit 4")
        result = run_service(
            db, workload_factory=lambda d: sql_workload(d, {"lim": sql}),
            strategy="data_driven_chopping",
            service=ServiceConfig(duration_seconds=1.0, rate=5))
        assert result.completed > 0
        assert result.identical, result.divergences

    @pytest.mark.skipif(
        not (shm.available()
             and "fork" in multiprocessing.get_all_start_methods()),
        reason="needs fork and shared memory",
    )
    def test_pool_chaos_sidecar_composition(self, ssb_db):
        service = small_service(duration_seconds=1.0, rate=100.0,
                                mutation_interval_seconds=0.5,
                                pool_chaos=True)
        result = serve(
            ssb_db, service,
            faults="crash=0.2,hang=0.1,kernel=0.02,seed=3",
        )
        assert result.epochs >= 1
        assert result.identical, result.divergences[:3]
        assert result.conserved()
        assert not shm.leaked_segments()


class TestZeroOverhead:
    def test_batch_path_untouched_by_service_mode(self, ssb_db):
        # importing and running service mode must not perturb a plain
        # batch run: same simulated makespan with and without a prior
        # service run in the process
        from repro.harness.runner import run_workload
        from repro.workloads import ssb as ssb_mod

        queries = ssb_mod.workload(ssb_db, FAST_QUERIES)

        def batch():
            run = run_workload(ssb_db, queries, "critical_path",
                               users=2, repetitions=2,
                               collect_results=True)
            return run.seconds, {name: table.row_tuples()
                                 for name, table in run.results.items()}

        before = batch()
        serve(ssb_db, small_service(duration_seconds=0.3, rate=50.0))
        assert batch() == before


# -- the soak: 4x overload + chaos + appends ---------------------------

#: ~10% of operator executions fault (pcie + heap + kernel)
SOAK_CHAOS = "pcie=0.04,heap=0.03,kernel=0.03,seed=29"
SOAK_QUERIES = ["Q1.1", "Q2.1", "Q3.1", "Q4.1"]
OVERLOAD = 4.0


@pytest.fixture(scope="module")
def soak_db():
    from repro.workloads import ssb

    return ssb.generate(scale_factor=0.05, data_scale=0.01, seed=7)


@pytest.fixture(scope="module")
def soak_config(soak_db):
    """The service configuration at ``OVERLOAD`` x the machine's
    *measured* capacity, so the soak follows the hardware model instead
    of pinning a rate.

    A closed-loop batch overstates what the machine holds at steady
    state (it rotates a handful of hot queries with no chaos), so it
    only gives a first guess; a short service run under the same chaos
    at half that guess measures the mean service time, and capacity is
    max_inflight / mean service.  Deadline and target ride the
    *premium* class's own service time: premium never sheds, so it
    pays full price for the heavy templates and their retries."""
    from repro.harness.runner import run_workload
    from repro.workloads import ssb

    queries = ssb.workload(soak_db, SOAK_QUERIES)
    batch = run_workload(soak_db, queries, "critical_path", users=4,
                         repetitions=5)
    guess = len(queries) * 5 / batch.seconds
    calibration = _soak(soak_db, ServiceConfig(
        duration_seconds=2.0, rate=0.5 * guess, tenants_per_class=2,
        max_inflight=4, validate=False, seed=48))
    rows = [row for row in calibration.ledger.values() if row["completed"]]
    mean_service = (sum(row["mean_service"] * row["completed"] for row in rows)
                    / sum(row["completed"] for row in rows))
    premium_service = calibration.ledger["premium"]["mean_service"]
    return ServiceConfig(
        duration_seconds=4.0, arrivals="diurnal",
        rate=OVERLOAD * 4.0 / mean_service,
        tenants_per_class=2, max_inflight=4,
        deadline_seconds=40.0 * premium_service,
        latency_target_seconds=16.0 * premium_service,
        mutation_interval_seconds=1.5,
        append_fraction=0.05, seed=47)


def _soak(soak_db, service):
    return serve(soak_db, service, query_names=SOAK_QUERIES,
                 faults=SOAK_CHAOS)


class TestOverloadSoak:
    """``repro serve --arrivals diurnal --rate R --faults ...`` prints
    the same ledger for a hand-picked rate."""

    def test_premium_attains_its_slo_at_four_times_capacity(
            self, soak_db, soak_config):
        result = _soak(soak_db, soak_config)
        premium = result.ledger["premium"]
        best_effort = result.ledger["best_effort"]
        # the overload is real: most of the offered load cannot be served
        assert result.shed > result.completed
        assert premium["attainment"] >= 0.95
        assert premium["shed"] == 0
        assert best_effort["shed"] > 0
        assert result.epochs >= 1 and result.faults_injected > 0
        assert result.conserved()
        assert result.identical, result.divergences[:5]

    def test_same_seed_same_ledger_and_fault_schedule(
            self, soak_db, soak_config):
        from dataclasses import replace

        short = replace(soak_config, duration_seconds=1.0,
                        mutation_interval_seconds=0.4)

        def outcome():
            result = _soak(soak_db, short)
            assert result.conserved() and result.epochs >= 1
            return (result.arrivals, result.completed, result.shed,
                    result.cancelled, result.ledger, result.tenant_ledger,
                    result.fault_digest)

        assert outcome() == outcome()
