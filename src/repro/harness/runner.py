"""Run a workload under one strategy on the simulated platform.

Mirrors the paper's methodology (Sec. 6.1): the database is pre-loaded
in host memory, access structures are pre-loaded into the GPU buffer
until it is full (the warm-up runs), then the workload executes and we
measure the makespan, per-query latencies, PCIe transfer times, aborts,
and wasted time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, Generator, List, Optional

from repro.core import (
    ChoppingExecutor,
    DataPlacementManager,
    PlacementPrefetcher,
    get_strategy,
)
from repro.core.chopping import check_pool_arguments
from repro.core.placement.base import PlacementStrategy
from repro.engine import morsel
from repro.engine.execution import (
    AdmissionController,
    ExecutionContext,
    LifecycleConfig,
    QueryCancelled,
    QueryContext,
    VectorizedExecutor,
    deadline_watchdog,
    execute_operators,
    run_plan_eager,
)
from repro.hardware import HardwareSystem, SystemConfig
from repro.metrics import ExecutionTrace, MetricsCollector
from repro.sim import Environment, Interrupted, Resource
from repro.storage import Database
from repro.workloads.base import WorkloadQuery


@dataclass
class WorkloadResult:
    """Everything one workload run produced."""

    metrics: MetricsCollector
    #: last result payload per query name (for validation)
    results: Dict[str, object]
    strategy: str
    users: int
    #: per-operator timeline; populated when run with ``trace=True``
    trace: Optional["ExecutionTrace"] = None
    #: total faults the injector raised (0 when injection was off)
    faults_injected: int = 0
    #: order-sensitive sha256 of the run's fault schedule, or None when
    #: injection was off — the CI determinism gate compares these
    fault_digest: Optional[str] = None
    #: injected fault counts per class
    fault_classes: Optional[Dict[str, int]] = None
    #: True when the query-lifecycle layer (admission / deadlines /
    #: hedging) was active for this run
    lifecycle_enabled: bool = False

    @property
    def seconds(self) -> float:
        return self.metrics.workload_seconds


def build_platform(database: Database, config: SystemConfig,
                   placement_policy: str = "lfu",
                   faults=None) -> ExecutionContext:
    """Assemble the simulated platform every harness entry point runs
    on; the context carries its environment, metrics and hardware.

    ``faults`` is a :class:`~repro.faults.FaultConfig`, a spec string,
    or None; the injector (``ctx.hardware.injector``) is hooked into
    the hardware only when injection is enabled.
    """
    from repro.faults import FaultConfig, FaultInjector

    fault_config = FaultConfig.coerce(faults)
    env = Environment()
    hardware = HardwareSystem(env, config, MetricsCollector())
    hardware.gpu_cache.policy = placement_policy
    if fault_config is not None and fault_config.enabled:
        hardware.install_faults(
            FaultInjector(fault_config, clock=lambda: env.now))
    return ExecutionContext(hardware, database)


def functional_warm(database: Database,
                    queries: List[WorkloadQuery]) -> None:
    """Memoise the functional results of one snapshot's templates.

    Recording, not answering: ``execute_functional``'s ``Limit``
    shortcut serves a row prefix and by design memoises nothing, which
    would leave the DES to re-run the chain on first touch.
    """
    for query in queries:
        plan = query.template_plan()
        morsel.prepare_fused(plan, database)
        execute_operators(plan, database)


def warm_platform(ctx: ExecutionContext, strategy: PlacementStrategy,
                  queries: List[WorkloadQuery], warm_cache: bool = True,
                  placement_policy: str = "lfu") -> None:
    """The paper's warm-up (Sec. 6.1): access statistics, functional
    memoisation, cache pre-load, then the opt-in background layers
    (prefetcher, split identity gate)."""
    database = ctx.database
    hardware = ctx.hardware
    config = hardware.config
    metrics = ctx.metrics
    wall_start = perf_counter()
    database.statistics.reset()
    functional_warm(database, queries)
    metrics.record_phase("numpy", perf_counter() - wall_start)
    placement = DataPlacementManager(
        database,
        caches=[device.cache for device in hardware.gpus],
        policy=placement_policy,
    )
    if warm_cache:
        placement.apply_placement()
        if not strategy.uses_data_placement:
            # Operator-driven data placement: the warm content is a
            # starting point, not pinned — operators insert and evict.
            for device in hardware.gpus:
                for key in device.cache.keys:
                    device.cache.unpin(key)
    elif strategy.uses_data_placement:
        # Data-driven placement needs the manager even for a cold
        # start; an empty cache simply keeps every operator on the CPU.
        placement.apply_placement()
    if hardware.bus.asynchronous and config.prefetch_depth > 0:
        # background prefetch rides the link's idle h2d windows,
        # driven by the same LFU/LRU ranking the manager uses
        PlacementPrefetcher(
            hardware, placement, depth=config.prefetch_depth
        ).start()
    if config.split:
        # Intra-operator co-processing: gate each query template for
        # chunk-merge byte identity, then hang the split state off the
        # context — the dispatch hook consults it per operator.
        from repro.engine.execution.split import SplitState

        split_state = SplitState(config, ctx.cost_model, strategy)
        split_state.prepare(database, queries, metrics=metrics)
        ctx.split = split_state


class QueryDriver:
    """One run's query path: :meth:`open` builds a query's context and
    starts its deadline watchdog, :meth:`admitted` acts on the admission
    decision, :meth:`serve` runs it on the run's one executor and books
    it; every completed result goes to :func:`check_result`.  Batch
    sessions and the service dispatcher both drive their queries here.
    """

    def __init__(self, ctx: ExecutionContext, strategy: PlacementStrategy,
                 lifecycle: Optional[LifecycleConfig],
                 processing_model: str = "operator", **pools):
        self.ctx = ctx
        self.env = ctx.env
        self.metrics = ctx.metrics
        self.strategy = strategy
        #: without a lifecycle the gate has nothing on: it always admits
        self.controller = AdmissionController(
            ctx.env, ctx.hardware, lifecycle or LifecycleConfig(),
            ctx.metrics)
        # the run's one executor, as ``submit(plan, qctx, ctx)``
        if processing_model == "vectorized":
            # vector-at-a-time (Sec. 5.5): pipelines replace the
            # operator-at-a-time executors entirely
            self.submit = VectorizedExecutor(ctx, strategy).submit
        elif strategy.executor == "chopping":
            self.submit = ChoppingExecutor(
                ctx, strategy, lifecycle=lifecycle, **pools).submit
        else:
            self.submit = lambda plan, qctx, run_ctx: run_plan_eager(
                run_ctx, plan, strategy, qctx)

    def open(self, name: str, user: int, deadline: Optional[float] = None,
             **attribution) -> QueryContext:
        """A new query's context.  Its deadline watchdog starts now, so
        time queued for admission counts toward the deadline."""
        qctx = QueryContext(self.env, name, user=user, metrics=self.metrics,
                            deadline_seconds=deadline, **attribution)
        if deadline is not None:
            qctx.watchdog = self.env.process(deadline_watchdog(qctx))
            qctx.watchdog.defused = True
        return qctx

    def admitted(self, qctx: QueryContext, start: float) -> Generator:
        """Act on the admission decision: True when the query may run
        (degraded: CPU-only); a shed or cancelled one is finished here."""
        decision = yield from self.controller.admit(qctx)
        if decision == "degrade":
            qctx.force_cpu = True
        elif decision != "run":
            if decision == "cancelled":
                self._cancelled(qctx, start)
            qctx.finish()
            return False
        return True

    def serve(self, qctx: QueryContext, query: WorkloadQuery, start: float,
              admitted_at: Optional[float] = None,
              ctx: Optional[ExecutionContext] = None) -> Generator:
        """Plan, submit and await one admitted query (over ``ctx``, an
        epoch snapshot, when given), book it, finish it and free its
        admission slot.  Returns the result (None when cancelled)."""
        ctx = self.ctx if ctx is None else ctx
        wall = perf_counter()
        plan = query.instantiate()
        self.strategy.prepare_plan(ctx, plan)
        self.metrics.record_phase("plan", perf_counter() - wall)
        try:
            result = yield self.submit(plan, qctx, ctx)
        except (QueryCancelled, Interrupted):
            result = None
            self._cancelled(qctx, start)
        else:
            self.metrics.record_query(
                query.name, qctx.user, start, self.env.now,
                tenant=qctx.tenant, slo_class=qctx.slo_class,
                admitted_at=admitted_at)
        qctx.finish()
        self.controller.release()
        return result

    def run(self) -> None:
        """Run the simulation dry.  The DES phase is the event loop's
        wall time minus the phases timed inside it."""
        wall = perf_counter()
        self.env.run()
        self.metrics.record_phase("des", perf_counter() - wall - sum(
            self.metrics.phase_seconds.get(phase, 0.0)
            for phase in ("plan", "validate", "mutate")))
        self.metrics.close(self.env.now)

    def _cancelled(self, qctx: QueryContext, start: float) -> None:
        self.metrics.record_cancelled_query(
            qctx.name, qctx.user, start, self.env.now,
            qctx.cancel_reason or "cancelled", tenant=qctx.tenant,
            slo_class=qctx.slo_class)


def run_workload(
    database: Database,
    queries: List[WorkloadQuery],
    strategy: str,
    config: Optional[SystemConfig] = None,
    users: int = 1,
    repetitions: int = 1,
    warm_cache: bool = True,
    placement_policy: str = "lfu",
    cpu_workers: int = 4,
    gpu_workers: int = 2,
    scheduling: str = "fifo",
    processing_model: str = "operator",
    collect_results: bool = False,
    trace: bool = False,
    validate: bool = False,
    algorithm_selection: bool = True,
    faults=None,
    lifecycle=None,
) -> WorkloadResult:
    """Execute ``queries`` x ``repetitions`` with ``users`` parallel
    sessions under the named placement strategy.

    The total amount of work is fixed; ``users`` only changes how many
    sessions issue it concurrently (the paper's Sec. 6.2.2 setup).

    With ``validate=True`` every SQL query's simulated result is
    cross-checked against the naive reference evaluator after the run;
    a mismatch raises :class:`ValidationError`.

    ``faults`` activates deterministic fault injection: a
    :class:`~repro.faults.FaultConfig`, a spec string
    (``"pcie=0.01,seed=42"`` — see :meth:`FaultConfig.parse`), or None
    (the default, no injection and zero overhead).

    ``lifecycle`` activates the overload-safe query lifecycle: a
    :class:`~repro.engine.execution.lifecycle.LifecycleConfig`, a spec
    string (``"max_inflight=4,policy=shed,deadline=0.5,hedge=3"`` — see
    :meth:`LifecycleConfig.parse`), or None (the default — and a config
    with every feature off is treated exactly like None, the
    zero-overhead path).
    """
    if users < 1 or repetitions < 1:
        raise ValueError("users and repetitions must be >= 1")
    if processing_model not in ("operator", "vectorized"):
        raise ValueError(
            "processing_model must be 'operator' or 'vectorized'"
        )
    check_pool_arguments(cpu_workers, gpu_workers, scheduling)
    config = config if config is not None else SystemConfig()
    lifecycle_config = LifecycleConfig.coerce(lifecycle)
    if lifecycle_config is not None and not lifecycle_config.enabled:
        lifecycle_config = None
    ctx = build_platform(database, config, placement_policy, faults)
    env, metrics, hardware = ctx.env, ctx.metrics, ctx.hardware
    injector = hardware.injector
    strategy_obj: PlacementStrategy = get_strategy(strategy)
    ctx.algorithm_selection = algorithm_selection
    if trace:
        ctx.trace = ExecutionTrace()
        if hardware.bus.asynchronous:
            # per-copy trace events exist only on the async link
            hardware.bus.trace = ctx.trace
    warm_platform(ctx, strategy_obj, queries, warm_cache, placement_policy)

    # -- partition the fixed workload over the user sessions -----------
    all_runs: List[WorkloadQuery] = [
        query for _ in range(repetitions) for query in queries
    ]
    sessions = [all_runs[i::users] for i in range(users)]

    driver = QueryDriver(
        ctx, strategy_obj, lifecycle_config, processing_model,
        cpu_workers=cpu_workers, gpu_workers=gpu_workers,
        scheduling=scheduling)
    admission = None
    if strategy_obj.admission_limit is not None:
        admission = Resource(env, capacity=strategy_obj.admission_limit)
    deadline = (lifecycle_config.deadline_seconds
                if lifecycle_config is not None else None)

    if validate:
        collect_results = True
    results: Dict[str, object] = {}

    def session(user_id: int, runs: List[WorkloadQuery]):
        for query in runs:
            # Latency is the response time from submission: time spent
            # queueing behind an admission control gate counts (that is
            # exactly the cost the paper attributes to it, Sec. 6.2.2).
            start = env.now
            if admission is not None:
                request = admission.request()
                yield request
            qctx = driver.open(query.name, user_id, deadline)
            if (yield from driver.admitted(qctx, start)):
                result = yield from driver.serve(qctx, query, start)
                if result is not None and collect_results:
                    results[query.name] = result.payload
            if admission is not None:
                admission.release(request)

    for user_id, runs in enumerate(sessions):
        if runs:
            env.process(session(user_id, runs))
    driver.run()
    if validate:
        wall_start = perf_counter()
        validate_results(database, queries, results)
        metrics.record_phase("validate", perf_counter() - wall_start)
    return WorkloadResult(
        metrics=metrics, results=results, strategy=strategy, users=users,
        trace=ctx.trace,
        faults_injected=injector.total_injected if injector else 0,
        fault_digest=injector.schedule_digest() if injector else None,
        fault_classes=dict(injector.injected) if injector else None,
        lifecycle_enabled=lifecycle_config is not None,
    )


class ValidationError(AssertionError):
    """A simulated query result disagreed with the reference evaluator."""


def validate_results(database: Database, queries: List[WorkloadQuery],
                     results: Dict[str, object]) -> None:
    """Cross-check collected payloads against the reference evaluator.

    Placement, caching, aborts, and fallbacks may change timing — never
    the answer.  Hand-built plans (no SQL) are skipped.
    """
    for query in queries:
        if query.spec is not None and query.name in results:
            check_result(database, query, results[query.name], {})


def check_result(database: Database, query: WorkloadQuery, payload,
                 references: Dict[str, list]) -> None:
    """The one validation site: raise :class:`ValidationError` unless
    ``payload`` is a right answer to the SQL ``query`` over
    ``database``.  ``references`` caches :func:`reference_rows` by query
    name: service mode checks every completion of a template under one
    snapshot against one evaluation."""
    want = references.get(query.name)
    if want is None:
        want = references[query.name] = reference_rows(database, query)
    got = list(map(canonical_row, payload.row_tuples()))
    if query.spec.limit is None:
        compare_rows(query.name, sorted(got), want)
    else:
        _compare_limited(query, got, want)


def _compare_limited(query: WorkloadQuery, got, full) -> None:
    """A ``LIMIT`` the ``ORDER BY`` does not determine has many right
    answers (the reference emits joins in ``FROM`` order, the engine in
    fact order), so check what every one of them shares: the row count,
    the ``ORDER BY`` keys row by row, and every row drawn — as a
    multiset — from the ``full`` un-limited reference rows."""
    from repro.engine.reference import output_names

    spec, name = query.spec, query.name
    names = output_names(spec)
    keys = [names.index(column) for column, _ in spec.order_by]
    compare_rows(name, [tuple(row[i] for i in keys) for row in got],
                 [tuple(row[i] for i in keys) for row in full[:spec.limit]])
    left = Counter(full)
    for row in got:
        # exact first; float sums may differ in their last digits
        match = row if left[row] > 0 else next(
            (other for other, count in left.items()
             if count > 0 and _row_close(row, other)), None)
        if match is None:
            raise ValidationError("{}: {} is not a row of the un-limited "
                                  "answer".format(name, row))
        left[match] -= 1


def reference_rows(database: Database, query: WorkloadQuery):
    """Canonical reference-engine rows for one SQL query: sorted, or —
    under a ``LIMIT`` — the un-limited rows in the reference's order,
    which :func:`_compare_limited` checks a limited answer against."""
    from repro.engine import execute_reference

    rows = [canonical_row(row) for row in
            execute_reference(replace(query.spec, limit=None), database)]
    return sorted(rows) if query.spec.limit is None else rows


def compare_rows(name: str, got, want) -> None:
    """Raise :class:`ValidationError` unless two canonical, sorted row
    lists agree (floats within 1e-9, everything else exactly).  Equal
    lists agree row by row, so only unequal ones are walked."""
    if got == want:
        return
    if len(got) != len(want):
        raise ValidationError(
            "{}: {} rows simulated vs {} rows reference".format(
                name, len(got), len(want)
            )
        )
    for got_row, want_row in zip(got, want):
        if not _row_close(got_row, want_row):
            raise ValidationError(
                "{}: {} != {}".format(name, got_row, want_row))


def _row_close(got_row, want_row) -> bool:
    for a, b in zip(got_row, want_row):
        if isinstance(a, float) or isinstance(b, float):
            if not math.isclose(float(a), float(b), rel_tol=1e-9,
                                abs_tol=1e-9):
                return False
        elif a != b:
            return False
    return True


def canonical_row(row):
    """Normalise one result row for comparison (str / float / int)."""
    return tuple(
        value if isinstance(value, str) else (
            float(value) if isinstance(value, float) else int(value)
        )
        for value in row
    )


def workload_footprint_bytes(queries: List[WorkloadQuery],
                             database: Database) -> int:
    """Paper-scale memory footprint of a workload (Fig. 16): the total
    size of every base column the workload touches."""
    keys = set()
    for query in queries:
        keys |= query.required_columns()
    return sum(database.column(key).nominal_bytes for key in keys)
