"""Execution context shared by all simulated executors."""

from __future__ import annotations

from typing import Optional

from repro.engine.execution.resilience import ResilienceManager
from repro.hardware import HardwareSystem
from repro.hardware.processor import ProcessorKind
from repro.hype import LearnedCostModel, LoadTracker
from repro.storage import Database


class ExecutionContext:
    """Everything an executor needs: devices, catalog, HyPE state."""

    def __init__(
        self,
        hardware: HardwareSystem,
        database: Database,
        cost_model: Optional[LearnedCostModel] = None,
    ):
        self.hardware = hardware
        self.database = database
        self.env = hardware.env
        self.metrics = hardware.metrics
        self.profile = hardware.profile
        self.cost_model = (
            cost_model
            if cost_model is not None
            else LearnedCostModel(hardware.profile)
        )
        #: retry policy + per-device circuit breakers; inert (always
        #: "go ahead") when the hardware has no fault injector
        self.resilience = ResilienceManager(
            config=getattr(hardware, "fault_config", None),
            metrics=self.metrics,
        )
        self.load = LoadTracker()
        self.load.attach_resilience(self.resilience, clock=lambda: self.env.now)
        #: optional per-operator timeline (set to an ExecutionTrace to
        #: record one; see repro.metrics.trace)
        self.trace = None
        #: intra-operator split execution state (a
        #: :class:`~repro.engine.execution.split.SplitState`); None when
        #: the layer is off, so disabled runs pay one ``is not None``
        self.split = None
        #: HyPE algorithm selection (disable to always run the default
        #: bulk algorithm; tests/test_algorithm_selection.py has the
        #: ablation)
        self.algorithm_selection = True

    def with_database(self, database: Database) -> "ExecutionContext":
        """Shallow fork bound to another catalog snapshot.

        Service mode pins each in-flight query to the table epoch it
        arrived under: the fork shares hardware, cost model, breakers
        and load tracker with the live context, but resolves columns
        against the pinned snapshot.  Split identity gates were proved
        against the base epoch's data, so forks of a *different*
        database drop the split state rather than trust stale gates.
        """
        fork = ExecutionContext.__new__(ExecutionContext)
        fork.__dict__.update(self.__dict__)
        fork.database = database
        if database is not self.database:
            fork.split = None
        return fork

    @property
    def gpu_cache(self):
        return self.hardware.gpu_cache

    @property
    def gpu_heap(self):
        return self.hardware.gpu_heap

    @property
    def bus(self):
        return self.hardware.bus


def processor_kind(name: str) -> ProcessorKind:
    """Kind of a processor by name ('cpu' or any 'gpuN')."""
    return ProcessorKind.CPU if name == "cpu" else ProcessorKind.GPU


def estimate_runtime(ctx: ExecutionContext, op, child_results,
                     processor_name: str) -> float:
    """HyPE runtime estimate for load tracking and placement costing."""
    input_bytes = op.input_nominal_bytes(ctx.database, child_results)
    return ctx.cost_model.estimate(
        op.kind, processor_kind(processor_name), input_bytes
    )


def resident_fraction(ctx: ExecutionContext, op, device) -> Optional[float]:
    """Fraction of ``op``'s base-column bytes resident in ``device``'s
    cache (None when it reads no column bytes): staging those costs
    nothing on the bus, so split work should flow to where the data
    already lives."""
    total = resident = 0
    for key in op.required_columns():
        nbytes = ctx.database.column(key).nominal_bytes
        total += nbytes
        if key in device.cache:
            resident += nbytes
    return resident / total if total else None


def place_operator(ctx: ExecutionContext, strategy, op, child_results,
                   qctx, processor_name: Optional[str] = None):
    """Place a ready operator (HyPE's tactical step) and queue its
    runtime estimate on that processor's load: the strategy decides, a
    query that admission degraded stays on the CPU, ``processor_name``
    pins the choice (the CPU copy of a hedged operator).  Returns
    ``(processor name, estimate)``; the caller owes ``ctx.load.finish``."""
    if processor_name is None:
        if qctx.force_cpu:
            processor_name = "cpu"
        else:
            processor_name = strategy.choose_processor(ctx, op,
                                                       child_results)
    estimate = estimate_runtime(ctx, op, child_results, processor_name)
    ctx.load.assign(processor_name, estimate)
    return processor_name, estimate
