"""Vector-at-a-time execution (the alternative processing model of
Sec. 5.5).

Instead of materialising every intermediate, a vectorized engine
streams cache-resident chunks (vectors) through *pipelines* — maximal
operator chains without a breaker — and materialises only at the
breakers (hash-table builds, aggregation, sorting, result delivery):

* **No column staging**: vectors stream over the bus beside the
  kernel; an uncached input costs ``max(transfer, compute)`` and never
  occupies the device heap.
* **Heap demand shrinks to the breakers**, whose outputs still need
  device memory, so heap contention persists for "reasonably complex
  query workloads" — the paper's point.
* **Cross-processor vector splitting** (Chen et al.): the host takes
  the share of the vectors that makes both processors finish together.

A pipeline is a composite operator to the one device attempt of
:mod:`repro.engine.execution.operator_task` (inputs streamed, device
share ``1 -`` the host's).  It is placed as a unit: the data-driven
rule wants every column of every member device-resident, the
cost-based rule compares whole-pipeline estimates.  Results come from
the same operator implementations, so the answers are the same.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Set

from repro.engine.execution.context import ExecutionContext
from repro.engine.execution.lease import deliver_to_host, pull_to_host
from repro.engine.execution.lifecycle import QueryCancelled, QueryContext
from repro.engine.execution.operator_task import STREAM, device_attempt
from repro.engine.intermediates import OperatorResult
from repro.engine.operators import PhysicalOperator, PhysicalPlan
from repro.hardware.processor import ProcessorKind
from repro.sim import Interrupted, Process


def is_pipelineable(op: PhysicalOperator) -> bool:
    """Operators that forward vectors without materialising.

    Selections pipeline trivially; a hash join pipelines its *probe*
    side (the build side is a breaker feeding the hash table).
    """
    return op.role in ("scan", "refine", "join")


class Pipeline:
    """A maximal chain of pipelineable operators ending in a breaker
    (or in the plan root) — to the device attempt, one composite
    operator named after its breaker."""

    def __init__(self, operators: List[PhysicalOperator]):
        if not operators:
            raise ValueError("a pipeline has at least one operator")
        self.operators = operators
        terminal = operators[-1]
        self.label = terminal.label
        self.kind = terminal.kind
        self.plan_name = terminal.plan_name
        #: the breaker's materialised output and the chain's ``[CPU,
        #: GPU]`` compute seconds, known before the pipeline is placed
        self.result: Optional[OperatorResult] = None
        self.seconds = None

    def required_columns(self) -> Set[str]:
        keys: Set[str] = set()
        for op in self.operators:
            keys |= op.required_columns()
        return keys

    def inputs(self, results: Dict[int, OperatorResult]):
        """The already materialised results the member operators read."""
        for op in self.operators:
            for child in op.children:
                child_result = results.get(child.op_id)
                if child_result is not None:
                    yield child_result

    def stream_bytes(self, database, inputs, device) -> int:
        """Bytes the pipeline streams over the bus to ``device``."""
        return (sum(database.column(key).nominal_bytes
                    for key in self.required_columns()
                    if key not in device.cache)
                + sum(child.nominal_bytes for child in inputs
                      if child.location != device.name))

    def host_share(self, ctx, stream_bytes: int) -> float:
        """Fraction of the vectors the host takes (Chen et al.): the
        split layer's :meth:`~repro.engine.execution.split.SplitState.
        vector_ratio` when it is on, else the share that makes both
        processors finish together."""
        cpu_seconds, gpu_seconds = self.seconds
        if gpu_seconds <= 0:
            return 0.0
        if ctx.split is not None:
            return ctx.split.vector_ratio(ctx, cpu_seconds, gpu_seconds,
                                          stream_bytes)
        gpu_rate = 1.0 / gpu_seconds
        cpu_rate = 1.0 / cpu_seconds if cpu_seconds > 0 else 0.0
        return cpu_rate / (cpu_rate + gpu_rate)

    def device_footprint_bytes(self, profile, database, child_results,
                               input_bytes) -> int:
        """The breaker's materialised output (or hash table) is the
        pipeline's only heap demand — vectors themselves stream."""
        return self.result.nominal_bytes

    def produce(self, database, child_results) -> OperatorResult:
        return self.result

    def __repr__(self) -> str:
        return "<Pipeline {}>".format(
            " -> ".join(op.label for op in self.operators)
        )


def build_pipelines(plan: PhysicalPlan) -> List[List[PhysicalOperator]]:
    """Split a plan into pipelines (post-order list of operator chains).

    Returns chains such that executing them in order respects all
    dependencies: a chain's inputs are either base columns or the
    outputs of earlier chains.
    """
    chains: List[List[PhysicalOperator]] = []

    def walk(op: PhysicalOperator) -> List[PhysicalOperator]:
        """Returns the open chain ending at ``op``: a pipelineable
        operator extends its first child's chain; every other child
        chain breaks here — a join's build side materialises into the
        hash table, a breaker's inputs before it runs."""
        extends = is_pipelineable(op)
        chain: List[PhysicalOperator] = []
        for position, child in enumerate(op.children):
            child_chain = walk(child)
            if extends and position == 0:
                chain = child_chain
            else:
                chains.append(child_chain)
        return chain + [op]

    chains.append(walk(plan.root))
    return chains


class VectorizedExecutor:
    """Runs plans pipeline-at-a-time with vector streaming."""

    def __init__(self, ctx: ExecutionContext, strategy):
        self.ctx = ctx
        self.strategy = strategy

    # -- public API ----------------------------------------------------

    def submit(self, plan: PhysicalPlan, qctx=None,
               ctx: Optional[ExecutionContext] = None) -> Process:
        """Execute ``plan``; returns a process yielding the root result.

        The plan process registers with ``qctx`` (a blank
        :class:`~repro.engine.execution.lifecycle.QueryContext` when
        omitted) for cooperative cancellation; a cancel interrupts it
        and releases every device-located intermediate.  ``ctx`` runs
        the plan over another context sharing this one's hardware.
        """
        if ctx is not None and ctx is not self.ctx:
            return VectorizedExecutor(ctx, self.strategy).submit(plan, qctx)
        if qctx is None:
            qctx = QueryContext(self.ctx.env, plan.name)
        process = self.ctx.env.process(self._run_plan(plan, qctx))
        process.defused = True
        qctx.register(process)
        return process

    # -- internals ----------------------------------------------------------

    def _run_plan(self, plan: PhysicalPlan, qctx) -> Generator:
        results: Dict[int, OperatorResult] = {}
        pipelines = [Pipeline(chain) for chain in build_pipelines(plan)]
        # map each pipeline to the (later) pipeline consuming its output
        consumers: Dict[int, Pipeline] = {}
        for pipeline in pipelines:
            for op in pipeline.operators:
                for child in op.children:
                    consumers[child.op_id] = pipeline
        try:
            for pipeline in pipelines:
                qctx.check()
                consumer = consumers.get(pipeline.operators[-1].op_id)
                yield from self._run_pipeline(pipeline, results, consumer,
                                              qctx)
            result = results[plan.root.op_id]
            yield from deliver_to_host(self.ctx, result)
        except (Interrupted, QueryCancelled):
            # cancelled mid-plan: every device-located intermediate of
            # this query must leave the heap before we unwind
            for intermediate in results.values():
                intermediate.release_device_memory()
            raise
        return result

    def _device_for(self, pipeline: Pipeline, inputs: List[OperatorResult],
                    consumer: Optional[Pipeline], qctx) -> Optional[str]:
        """Device placement for a whole pipeline (None = CPU)."""
        ctx = self.ctx
        if qctx.force_cpu:
            return None
        required = pipeline.required_columns()
        candidates = [
            device for device in ctx.hardware.gpus
            if ctx.resilience.available(device.name, ctx.env.now)
        ]
        if self.strategy.uses_data_placement:
            for device in candidates:
                if all(key in device.cache for key in required):
                    return device.name
            return None
        # cost-based: compare whole-pipeline estimates per device.  The
        # breaker output ships back to the host unless the consuming
        # pipeline could itself run on this device.
        cpu_seconds, gpu_seconds = pipeline.seconds
        best: Optional[str] = None
        best_cost = cpu_seconds
        for device in candidates:
            stream_bytes = pipeline.stream_bytes(ctx.database, inputs,
                                                 device)
            cost = max(gpu_seconds, ctx.bus.transfer_time(stream_bytes))
            consumer_stays = consumer is not None and all(
                key in device.cache
                for key in consumer.required_columns()
            )
            if not consumer_stays:
                cost += ctx.bus.transfer_time(
                    pipeline.result.nominal_bytes)
            if cost < best_cost:
                best = device.name
                best_cost = cost
        return best

    def _run_pipeline(self, pipeline: Pipeline,
                      results: Dict[int, OperatorResult],
                      consumer: Optional[Pipeline],
                      qctx) -> Generator:
        ctx = self.ctx
        env = ctx.env
        start = env.now
        for op in pipeline.operators:
            ctx.database.statistics.record_accesses(op.column_keys(), start)

        # functional execution first: run-time placement sees exact
        # input and output cardinalities
        self._materialise(pipeline, results)
        result = pipeline.result
        inputs = list(pipeline.inputs(results))
        device_name = self._device_for(pipeline, inputs, consumer, qctx)
        placed = None
        if device_name is not None:
            # the one device attempt, streaming its inputs, under the
            # retry policy and the device's circuit breaker; its wasted
            # time counts from the pipeline's start
            placed = yield from ctx.resilience.attempts(
                env, device_name, device_attempt,
                (ctx, ctx.hardware.device(device_name), pipeline, inputs,
                 0, qctx, STREAM, 1.0, False, start),
                pipeline.plan_name, qctx,
            )
        if placed is None:
            cpu_start = env.now
            # inputs produced on a device stream back to the host
            yield from pull_to_host(ctx, inputs)
            yield from ctx.hardware.cpu.execute(pipeline.seconds[0])
            result.location = "cpu"
            if ctx.trace is not None:
                ctx.trace.record(pipeline.label, pipeline.kind, "cpu",
                                 pipeline.plan_name, cpu_start, env.now)
        # single-consumer plans: release inputs the pipeline consumed
        for child_result in inputs:
            if child_result is not result:
                child_result.release_device_memory()

    def _materialise(self, pipeline: Pipeline,
                     results: Dict[int, OperatorResult]) -> None:
        """Functional execution of the chain (shared numpy work, zero
        simulated time) and its ``[CPU, GPU]`` compute seconds, each
        operator sized once."""
        ctx = self.ctx
        sized = []
        for op in pipeline.operators:
            child_results = [results[c.op_id] for c in op.children]
            results[op.op_id] = pipeline.result = op.produce(
                ctx.database, child_results)
            sized.append((op.kind, op.input_nominal_bytes(ctx.database,
                                                          child_results)))
        pipeline.seconds = [
            sum(ctx.profile.compute_seconds(op_kind, kind, input_bytes)
                for op_kind, input_bytes in sized)
            for kind in (ProcessorKind.CPU, ProcessorKind.GPU)]
