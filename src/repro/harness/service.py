"""Service mode: open-system multi-tenant traffic on the simulated machine.

Every other harness entry point replays a *closed* batch: a fixed set
of queries, issued by a fixed number of sessions, measured by makespan.
The paper's robustness claim only matters at *steady state*, so this
module runs the machine as a service:

* **Streaming arrivals** over simulated time — Poisson or diurnal
  (sinusoidally modulated rate) — from N tenants partitioned into SLO
  classes.
* **SLO classes** (premium / standard / best-effort by default) with
  per-class deadline multipliers, p99 latency targets, fair-share
  weights and tenant queue caps.
* **Fair-share admission** layered *on top of* the PR5 lifecycle: a
  weighted deficit-round-robin dispatcher over per-tenant FIFO queues
  decides *who* goes next; tenant-level shed/degrade (queue caps with
  per-class overflow policies) fires before the global
  :class:`AdmissionController` gate decides *whether the machine* can
  take another query; a starvation guard promotes any tenant whose
  queue head has aged past ``starvation_seconds`` regardless of
  deficits.
* **Concurrent data mutation**: append batches advance the table epoch
  through :class:`~repro.storage.epochs.EpochStore`.  In-flight
  queries stay pinned to the snapshot they were dispatched under (the
  executor runs them on a forked :class:`ExecutionContext`), so every
  completed query is byte-identical to the reference engine evaluated
  over *its* snapshot; drained snapshots retire through the cache
  registry, invalidating join indexes, memoised plans, size estimates,
  and shm manifests.
* **Chaos composition**: PR3 fault storms (``faults=``) hit mid-stream
  and are blamed per tenant; optionally each epoch's warm-up also runs
  through a PR8 self-healing :class:`MorselPool` under process chaos
  as an identity sidecar (``ServiceConfig.pool_chaos``).

Everything here is opt-in: no batch code path ever constructs these
objects, so disabling service mode is zero-overhead.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from random import Random
from time import perf_counter
from typing import (Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from repro.core import get_strategy
from repro.engine.execution import (
    ExecutionContext,
    LifecycleConfig,
    QueryContext,
)
from repro.harness.runner import (
    QueryDriver,
    ValidationError,
    build_platform,
    check_result,
    functional_warm,
    warm_platform,
)
from repro.hardware import SystemConfig
from repro.metrics import MetricsCollector
from repro.storage import Database, EpochStore
from repro.workloads import BENCHMARKS
from repro.workloads.base import WorkloadQuery


# -- SLO classes -------------------------------------------------------


@dataclass(frozen=True)
class SLOClass:
    """One service tier: fairness weight, deadline, target, overflow."""

    name: str
    #: deficit-round-robin weight (queries per round relative to 1.0)
    weight: float = 1.0
    #: per-class deadline = base ``deadline_seconds`` x this
    deadline_multiplier: float = 1.0
    #: per-class p99 target = base ``latency_target_seconds`` x this
    target_multiplier: float = 1.0
    #: fraction of the aggregate arrival rate this class generates
    arrival_share: float = 1.0
    #: queued requests per tenant before the overflow policy fires
    queue_cap: int = 8
    #: what happens beyond the cap: "queue" (soft cap — keep
    #: queueing), "shed" (reject now), "degrade-to-cpu" (queue, but
    #: the query runs CPU-only)
    overflow_policy: str = "queue"

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("SLO class weight must be positive")
        if self.queue_cap < 1:
            raise ValueError("queue_cap must be >= 1")
        if self.overflow_policy not in ("queue", "shed", "degrade-to-cpu"):
            raise ValueError(
                "overflow_policy must be queue/shed/degrade-to-cpu")


#: The default three-tier partition.  Premium pays for priority (a
#: dominant fair-share weight, generous deadline, early GPU-degradation
#: to protect the deadline) and generates the least traffic;
#: best-effort generates over half the traffic and is the first to
#: shed under overload.  The premium weight is sized for sustained
#: overload: its DRR share of a saturated machine (16/19 with all
#: three tiers backlogged) must exceed its offered load at the design
#: overload point (0.10 arrival share x 4x overload = 0.4x capacity,
#: with chaos retries inflating service times on top), or its queue
#: grows without bound and no deadline can save its p99.
PREMIUM = SLOClass(
    "premium", weight=16.0, deadline_multiplier=4.0,
    target_multiplier=4.0, arrival_share=0.10, queue_cap=16,
    overflow_policy="queue",
)
STANDARD = SLOClass(
    "standard", weight=2.0, deadline_multiplier=2.0, target_multiplier=2.0,
    arrival_share=0.35, queue_cap=6, overflow_policy="degrade-to-cpu",
)
BEST_EFFORT = SLOClass(
    "best_effort", weight=1.0, deadline_multiplier=1.0,
    target_multiplier=1.0, arrival_share=0.55, queue_cap=3,
    overflow_policy="shed",
)
DEFAULT_CLASSES: Tuple[SLOClass, ...] = (PREMIUM, STANDARD, BEST_EFFORT)


# -- configuration -----------------------------------------------------

#: Diurnal arrivals: rate(t) = rate * (1 + A sin(2 pi t / P)) with
#: amplitude A and period P in simulated seconds.
DIURNAL_AMPLITUDE = 0.75
DIURNAL_PERIOD_SECONDS = 8.0

#: Deficit quantum per dispatcher round (queries per unit weight).
QUANTUM = 1.0


@dataclass(frozen=True)
class ServiceConfig:
    """Open-system traffic shape, tenancy, SLOs, and mutation knobs."""

    #: simulated seconds of arrival traffic (the run then drains)
    duration_seconds: float = 20.0
    #: arrival model: "poisson" or "diurnal" (DIURNAL_AMPLITUDE)
    arrivals: str = "poisson"
    #: aggregate mean arrival rate (queries per simulated second)
    rate: float = 10.0
    #: tenants per SLO class (tenant names are "<class>-<i>")
    tenants_per_class: int = 2
    #: machine-level gate (the PR5 lifecycle layer underneath)
    max_inflight: int = 4
    #: base per-query deadline (x class deadline_multiplier); None
    #: disables deadlines and cancellation
    deadline_seconds: Optional[float] = None
    #: base p99 latency target (x class target_multiplier) for the
    #: attainment ledger; None disables attainment accounting
    latency_target_seconds: Optional[float] = None
    #: promote any tenant whose queue head waited this long
    starvation_seconds: float = 5.0
    #: append-batch cadence in simulated seconds (None = no mutation)
    mutation_interval_seconds: Optional[float] = None
    #: fraction of each target table appended per batch
    append_fraction: float = 0.05
    #: run each epoch warm-up through a PR8 self-healing MorselPool
    #: of two workers under process chaos as an identity sidecar
    #: (requires shm)
    pool_chaos: bool = False
    #: cross-check every completed query against the reference engine
    #: evaluated over its pinned snapshot
    validate: bool = True
    seed: int = 11

    def __post_init__(self):
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.arrivals not in ("poisson", "diurnal"):
            raise ValueError("arrivals must be poisson/diurnal")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.tenants_per_class < 1:
            raise ValueError("tenants_per_class must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if not 0.0 < self.append_fraction <= 1.0:
            raise ValueError("append_fraction must be in (0, 1]")
        if self.starvation_seconds <= 0:
            raise ValueError("starvation_seconds must be positive")
        # a zero deadline cancels every query, a negative one never
        # fires; a zero cadence would append forever at one simulated time
        for name in ("deadline_seconds", "latency_target_seconds",
                     "mutation_interval_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError("{} must be positive".format(name))

    def targets(self) -> Dict[str, float]:
        """Per-class p99 latency targets in simulated seconds."""
        if self.latency_target_seconds is None:
            return {}
        return {
            cls.name: self.latency_target_seconds * cls.target_multiplier
            for cls in DEFAULT_CLASSES
        }


# -- arrival models ----------------------------------------------------


class _DiurnalArrivals:
    """Poisson with a sinusoidal rate — a day cycle in miniature (at
    amplitude 0, plain Poisson: ``rate_at`` is then exactly ``rate``)."""

    def __init__(self, rate: float, amplitude: float, period: float):
        self.rate = rate
        self.amplitude = amplitude
        self.period = period

    def rate_at(self, now: float) -> float:
        phase = math.sin(2.0 * math.pi * now / self.period)
        return max(self.rate * (1.0 + self.amplitude * phase),
                   0.05 * self.rate)

    def next_interarrival(self, now: float, rng: Random) -> float:
        return rng.expovariate(self.rate_at(now))


# -- tenancy -----------------------------------------------------------


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a name, an index, and its SLO class."""

    name: str
    index: int
    slo: SLOClass
    #: this tenant's share of the aggregate arrival rate
    share: float


def build_tenants(service: ServiceConfig) -> List[TenantSpec]:
    """Partition tenants over the SLO classes with arrival shares
    normalised so they sum to 1 across all tenants."""
    total_share = sum(cls.arrival_share for cls in DEFAULT_CLASSES)
    tenants: List[TenantSpec] = []
    index = 0
    for cls in DEFAULT_CLASSES:
        per_tenant = (cls.arrival_share / total_share
                      / service.tenants_per_class)
        for i in range(service.tenants_per_class):
            tenants.append(TenantSpec(
                name="{}-{}".format(cls.name, i), index=index,
                slo=cls, share=per_tenant,
            ))
            index += 1
    return tenants


@dataclass(eq=False)
class _Request:
    """One arrived query travelling through fair-share admission."""

    tenant: TenantSpec
    query_index: int
    arrived_at: float
    qctx: QueryContext
    #: tenant-level overflow already degraded this query to CPU
    overflow_degraded: bool = False


class FairShareAdmission:
    """Weighted deficit-round-robin over per-tenant FIFO queues.

    Tenant-level policy (queue caps, shed/degrade overflow, starvation
    guard) lives here — *above* the global admission gate, so a noisy
    best-effort tenant sheds before it can push a premium query into
    the machine-level overload policy.
    """

    def __init__(self, tenants: Sequence[TenantSpec], quantum: float,
                 starvation_seconds: float, metrics: MetricsCollector):
        self.quantum = quantum
        self.starvation_seconds = starvation_seconds
        self.metrics = metrics
        self._queues: Dict[str, Deque[_Request]] = {
            t.name: deque() for t in tenants
        }
        self._weights = {t.name: t.slo.weight for t in tenants}
        self._deficits: Dict[str, float] = {t.name: 0.0 for t in tenants}
        self._ring = [t.name for t in tenants]
        self._cursor = 0

    # -- enqueue ------------------------------------------------------

    def offer(self, request: _Request) -> str:
        """Apply the tenant-level overflow policy; returns "queued",
        "shed", or "degraded" (queued CPU-only)."""
        tenant = request.tenant
        queue = self._queues[tenant.name]
        if len(queue) >= tenant.slo.queue_cap:
            policy = tenant.slo.overflow_policy
            if policy == "shed":
                self.metrics.count("sheds", **request.qctx.labels())
                return "shed"
            if policy == "degrade-to-cpu":
                # degrade first, shed at twice the cap: an unbounded
                # CPU-only backlog would parasitise machine capacity
                # that higher tiers are paying for
                if len(queue) >= 2 * tenant.slo.queue_cap:
                    self.metrics.count("sheds", **request.qctx.labels())
                    return "shed"
                request.overflow_degraded = request.qctx.force_cpu = True
                self.metrics.count("degraded", **request.qctx.labels())
                queue.append(request)
                return "degraded"
            # "queue": soft cap — keep queueing
        queue.append(request)
        return "queued"

    # -- dispatch -----------------------------------------------------

    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def next_request(self, now: float) -> Optional[_Request]:
        """Pick the next request to dispatch, or None when idle.

        The starvation guard runs first: the oldest queue head that
        has waited past ``starvation_seconds`` is served regardless of
        deficit state, so weight-1 tenants cannot be starved by a
        persistent premium backlog."""
        starving: Optional[str] = None
        oldest = now - self.starvation_seconds
        for name, queue in self._queues.items():
            if queue and queue[0].arrived_at <= oldest:
                if (starving is None
                        or queue[0].arrived_at
                        < self._queues[starving][0].arrived_at):
                    starving = name
        if starving is not None:
            self.metrics.count("starvation_promotions")
            self._deficits[starving] = max(
                self._deficits[starving] - 1.0, 0.0)
            return self._queues[starving].popleft()
        if not self.pending():
            return None
        # deficit round-robin: each pass tops every backlogged tenant
        # up by quantum x weight; a tenant with deficit >= 1 serves one
        ring = self._ring
        n = len(ring)
        # terminates: every pass adds quantum x weight > 0 to each
        # backlogged tenant under a cap >= 1
        while True:
            for step in range(n):
                name = ring[(self._cursor + step) % n]
                queue = self._queues[name]
                if not queue:
                    # an idle tenant banks nothing (classic DRR)
                    self._deficits[name] = 0.0
                    continue
                if self._deficits[name] >= 1.0:
                    self._deficits[name] -= 1.0
                    self._cursor = (self._cursor + step + 1) % n
                    return queue.popleft()
            for name in ring:
                if self._queues[name]:
                    self._deficits[name] = min(
                        self._deficits[name]
                        + self.quantum * self._weights[name],
                        float(len(self._queues[name])),
                    )


# -- results -----------------------------------------------------------


@dataclass
class ServiceResult:
    """Everything one service run produced."""

    metrics: MetricsCollector
    #: per-SLO-class ledger (MetricsCollector.slo_ledger)
    ledger: Dict[str, Dict[str, float]]
    tenant_ledger: Dict[str, Dict[str, float]]
    #: chaos blame per tenant (fault classes, aborts, wasted, retries)
    tenant_faults: Dict[str, Dict[str, float]]
    #: per-class p99 targets used for attainment (empty = disabled)
    targets: Dict[str, float]
    arrivals: int
    completed: int
    shed: int
    degraded: int
    cancelled: int
    #: append epochs advanced during the run
    epochs: int
    #: True when every completed query matched the reference engine
    #: over its pinned snapshot (vacuously True when validate=False)
    identical: bool
    divergences: List[str]
    strategy: str
    faults_injected: int = 0
    fault_digest: Optional[str] = None

    @property
    def simulated_seconds(self) -> float:
        return self.metrics.workload_seconds

    def conserved(self) -> bool:
        """Every arrival is accounted for exactly once: completed,
        shed (tenant- or machine-level), or cancelled.  Retries must
        never double-count."""
        return self.arrivals == self.completed + self.shed + self.cancelled


# -- the service loop --------------------------------------------------


class _ServiceRun:
    def __init__(self, database: Database,
                 workload_factory: Callable[[Database],
                                            List[WorkloadQuery]],
                 workload_name: str, strategy: str,
                 config: SystemConfig, service: ServiceConfig, faults):
        from repro.faults import FaultConfig

        self.service = service
        self.workload_factory = workload_factory
        self.workload_name = workload_name
        self.strategy_name = strategy
        self.fault_config = FaultConfig.coerce(faults)
        self.ctx = build_platform(database, config,
                                  faults=self.fault_config)
        self.env = self.ctx.env
        self.metrics = self.ctx.metrics
        self.strategy = get_strategy(strategy)
        self.rng = Random(service.seed)
        self.tenants = build_tenants(service)
        self.store = EpochStore(database)
        queries = workload_factory(database)
        if not queries:
            raise ValueError("service mode needs a non-empty workload")
        self.epoch_queries: Dict[int, List[WorkloadQuery]] = {0: queries}
        self.epoch_ctx: Dict[int, ExecutionContext] = {0: self.ctx}
        #: reference rows per epoch and query name (see check_result)
        self._references: Dict[int, Dict[str, list]] = {}
        self.divergences: List[str] = []
        self._rr: Counter = Counter()  # per-tenant query round-robin
        self._stir = self.env.event()
        self.fair = FairShareAdmission(
            self.tenants, QUANTUM, service.starvation_seconds,
            self.metrics)
        # the global gate sheds what fair share overruns it with:
        # "queue" would block the dispatcher loop itself
        self.driver = QueryDriver(
            self.ctx, self.strategy, LifecycleConfig(
                max_inflight=service.max_inflight, overload_policy="shed"))
        warm_platform(self.ctx, self.strategy, queries)

    # -- arrivals -----------------------------------------------------

    def _arrivals(self):
        service = self.service
        model = _DiurnalArrivals(
            service.rate,
            DIURNAL_AMPLITUDE if service.arrivals == "diurnal" else 0.0,
            DIURNAL_PERIOD_SECONDS)
        names = [t.name for t in self.tenants]
        shares = [t.share for t in self.tenants]
        by_name = {t.name: t for t in self.tenants}
        while True:
            dt = model.next_interarrival(self.env.now, self.rng)
            if self.env.now + dt >= service.duration_seconds:
                return
            yield self.env.timeout(dt)
            tenant = by_name[
                self.rng.choices(names, weights=shares)[0]]
            queries = self.epoch_queries[self.store.epoch]
            query_index = (tenant.index + self._rr[tenant.name]) \
                % len(queries)
            self._rr[tenant.name] += 1
            self.metrics.count("arrivals", tenant=tenant.name,
                               slo_class=tenant.slo.name)
            deadline = None
            if service.deadline_seconds is not None:
                deadline = (service.deadline_seconds
                            * tenant.slo.deadline_multiplier)
            # opened at arrival: tenant-queue time counts toward the
            # deadline, exactly like the PR5 admission queue
            qctx = self.driver.open(
                queries[query_index].name, tenant.index, deadline,
                tenant=tenant.name, slo_class=tenant.slo.name,
            )
            request = _Request(tenant, query_index, self.env.now, qctx)
            if self.fair.offer(request) == "shed":
                qctx.finish()
            else:
                self._wake()

    # -- dispatcher ---------------------------------------------------

    def _dispatcher(self):
        while True:
            while self.driver.controller.has_capacity():
                request = self.fair.next_request(self.env.now)
                if request is None:
                    break
                # the driver books tenant-queue cancels and global sheds
                if (yield from self.driver.admitted(request.qctx,
                                                    request.arrived_at)):
                    self.env.process(self._serve(request))
            yield self._stir
            self._stir = self.env.event()

    def _wake(self) -> None:
        if not self._stir.triggered:
            self._stir.succeed()

    # -- per-query execution ------------------------------------------

    def _serve(self, request: _Request):
        epoch = self.store.pin()
        queries = self.epoch_queries[epoch]
        query = queries[request.query_index % len(queries)]
        result = yield from self.driver.serve(
            request.qctx, query, request.arrived_at,
            admitted_at=self.env.now, ctx=self.epoch_ctx[epoch])
        if (result is not None and self.service.validate
                and query.spec is not None):
            wall = perf_counter()
            self._check(epoch, query, result.payload)
            self.metrics.record_phase("validate", perf_counter() - wall)
        for _ in range(self.store.unpin(epoch)):
            self.metrics.count("snapshots_retired")
        self._wake()

    def _check(self, epoch: int, query: WorkloadQuery, payload,
               where: str = "") -> None:
        """One answer against the reference over its snapshot."""
        try:
            check_result(self.store.snapshot(epoch), query, payload,
                         self._references.setdefault(epoch, {}))
        except ValidationError as error:
            self.divergences.append(
                "epoch {}{}: {}".format(epoch, where, error))

    # -- concurrent mutation ------------------------------------------

    def _mutator(self):
        service = self.service
        interval = service.mutation_interval_seconds
        while True:
            yield self.env.timeout(interval)
            if self.env.now >= service.duration_seconds:
                return
            wall = perf_counter()
            # appends go to the largest (fact) table
            snapshot = self.store.advance(service.append_fraction)
            queries = self.workload_factory(snapshot)
            functional_warm(snapshot, queries)
            if service.pool_chaos:
                self._pool_sidecar(snapshot, queries)
            self.epoch_queries[self.store.epoch] = queries
            self.epoch_ctx[self.store.epoch] = \
                self.ctx.with_database(snapshot)
            self.metrics.count("service_epochs")
            self.metrics.record_phase("mutate", perf_counter() - wall)

    def _pool_sidecar(self, snapshot: Database,
                      queries: List[WorkloadQuery]) -> None:
        """Run the new epoch through a self-healing MorselPool under
        process chaos and cross-check its answers against the reference
        engine — PR8 composition as an identity sidecar."""
        from repro.storage import shm

        if not shm.available():
            return
        from repro.harness.parallel import MorselPool

        workload = (self.workload_name
                    if self.workload_name in BENCHMARKS else "sql")
        sql_queries = [q for q in queries if q.sql is not None]
        if workload == "sql" and not sql_queries:
            return
        with MorselPool(snapshot, sql_queries or queries,
                        workload=workload, jobs=2,
                        faults=self.fault_config) as pool:
            results = pool.run_queries()
            pool.record_metrics(self.metrics)
        for query in (sql_queries or queries):
            if query.spec is not None and query.name in results:
                self._check(self.store.epoch, query,
                            results[query.name].payload, " (chaos pool)")

    # -- run ----------------------------------------------------------

    def run(self) -> ServiceResult:
        env = self.env
        env.process(self._arrivals())
        env.process(self._dispatcher())
        if self.service.mutation_interval_seconds is not None:
            env.process(self._mutator())
        self.driver.run()
        metrics = self.metrics
        injector = self.ctx.hardware.injector
        targets = self.service.targets()
        return ServiceResult(
            metrics=metrics,
            ledger=metrics.slo_ledger(targets),
            tenant_ledger=metrics.tenant_ledger(),
            tenant_faults=metrics.tenant_fault_report(),
            targets=targets,
            arrivals=metrics.total("arrivals"),
            completed=len(metrics.queries),
            shed=metrics.total("sheds"),
            degraded=metrics.total("degraded"),
            cancelled=len(metrics.cancelled_queries),
            epochs=self.store.epoch,
            identical=not self.divergences,
            divergences=self.divergences,
            strategy=self.strategy_name,
            faults_injected=injector.total_injected if injector else 0,
            fault_digest=injector.schedule_digest() if injector else None,
        )


def resolve_workload_factory(
    workload: str,
    names: Optional[Sequence[str]] = None,
) -> Callable[[Database], List[WorkloadQuery]]:
    """Workload-module factory: rebuilt per epoch snapshot."""
    if workload not in BENCHMARKS:
        raise ValueError("workload must be one of {}".format(
            sorted(BENCHMARKS)))
    module = BENCHMARKS[workload]
    name_list = list(names) if names else None

    def factory(database: Database) -> List[WorkloadQuery]:
        if name_list:
            return module.workload(database, name_list)
        return module.workload(database)

    return factory


def run_service(
    database: Database,
    workload_factory=None,
    strategy: str = "critical_path",
    config: Optional[SystemConfig] = None,
    service: Optional[ServiceConfig] = None,
    workload: str = "ssb",
    query_names: Optional[Sequence[str]] = None,
    faults=None,
) -> ServiceResult:
    """Run the simulated machine as a multi-tenant service.

    ``workload_factory`` (``database -> [WorkloadQuery]``) is called
    once per table epoch so queries always bind to their snapshot;
    when omitted it is resolved from ``workload``/``query_names``.
    ``service`` shapes the traffic, tenancy, admission and deadlines.
    ``strategy``, ``config`` and ``faults`` mean what they mean for
    :func:`run_workload`, whose other defaults the service keeps: a
    warm LFU cache, the default worker pools, FIFO ready queues,
    operator-at-a-time queries and algorithm selection on; there is no
    ``users`` or ``repetitions`` (``service`` sets the arrivals) and no
    ``trace``.
    """
    config = config if config is not None else SystemConfig()
    service = service if service is not None else ServiceConfig()
    if workload_factory is None:
        workload_factory = resolve_workload_factory(workload, query_names)
    return _ServiceRun(
        database, workload_factory, workload, strategy, config, service,
        faults).run()


__all__ = [
    "BEST_EFFORT",
    "DEFAULT_CLASSES",
    "FairShareAdmission",
    "PREMIUM",
    "STANDARD",
    "SLOClass",
    "ServiceConfig",
    "ServiceResult",
    "TenantSpec",
    "build_tenants",
    "resolve_workload_factory",
    "run_service",
]
