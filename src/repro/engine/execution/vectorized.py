"""Vector-at-a-time execution (the alternative processing model of
Sec. 5.5).

The operator-at-a-time engine materialises every intermediate.  A
vectorized engine instead streams cache-resident chunks (vectors)
through *pipelines* — maximal operator chains without a pipeline
breaker — and only materialises at the breakers (hash-table builds,
aggregation, sorting, result delivery).

Consequences modelled here, following the paper's discussion:

* **No column staging**: vectors stream over the bus, overlapping
  compute; an uncached input costs ``max(transfer, compute)`` instead
  of their sum, and never occupies the device heap.
* **Heap demand shrinks to the breakers**: hash tables and
  materialised breaker outputs still need device memory, so heap
  contention persists for "reasonably complex query workloads" —
  exactly the paper's point.
* **Cross-processor vector splitting** (Chen et al.): when both
  processors can run a pipeline, its vectors are split so CPU and GPU
  finish together; the GPU's share is bounded by the PCIe rate when
  the inputs are not cached.

Pipelines are placed as a unit: the data-driven rule requires every
column any member operator reads to be device-resident; the cost-based
rule compares whole-pipeline estimates.

Functional results are produced by the same operator implementations,
so vectorized runs return exactly the same answers.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Set

from repro.engine.execution.context import ExecutionContext
from repro.engine.execution.lease import (
    DeviceLease,
    deliver_to_host,
    pull_to_host,
)
from repro.engine.execution.lifecycle import QueryCancelled, QueryContext
from repro.engine.execution.resilience import account_abort
from repro.engine.intermediates import OperatorResult
from repro.engine.operators import PhysicalOperator, PhysicalPlan
from repro.hardware import DeviceFault
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
    (or in the plan root)."""

    def __init__(self, operators: List[PhysicalOperator]):
        if not operators:
            raise ValueError("a pipeline has at least one operator")
        self.operators = operators

    @property
    def terminal(self) -> PhysicalOperator:
        return self.operators[-1]

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
                consumer = consumers.get(pipeline.terminal.op_id)
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

    def _device_for(self, pipeline: Pipeline,
                    results: Dict[int, OperatorResult],
                    result: OperatorResult,
                    consumer: Optional[Pipeline],
                    qctx, seconds) -> Optional[str]:
        """Device placement for a whole pipeline (None = CPU), given
        its ``(CPU, GPU)`` compute seconds."""
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
        best: Optional[str] = None
        best_cost = seconds[0]
        for device in candidates:
            stream_bytes = self._stream_bytes(pipeline, results, device)
            cost = max(seconds[1], ctx.bus.transfer_time(stream_bytes))
            consumer_stays = consumer is not None and all(
                key in device.cache
                for key in consumer.required_columns()
            )
            if not consumer_stays:
                cost += ctx.bus.transfer_time(result.nominal_bytes)
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

        # functional execution first (zero simulated time): run-time
        # placement sees exact input and output cardinalities
        result = self._materialise(pipeline, results)
        seconds = self._compute_seconds(pipeline, results)
        device_name = self._device_for(pipeline, results, result, consumer,
                                       qctx, seconds)
        placed = None
        if device_name is not None:
            # transient injected faults are retried with backoff under
            # the device's circuit breaker; a genuine out-of-memory
            # abort falls back immediately, as in the
            # operator-at-a-time engine
            placed = yield from ctx.resilience.attempts(
                env, device_name, self._attempt_device_once,
                (pipeline, results, result, device_name, start, qctx,
                 seconds),
                pipeline.terminal.plan_name, qctx,
            )
        if placed is None:
            yield from self._run_on_cpu(pipeline, results, result, seconds[0])
        # single-consumer plans: release inputs the pipeline consumed
        for child_result in pipeline.inputs(results):
            if child_result is not result:
                child_result.release_device_memory()

    def _materialise(self, pipeline: Pipeline,
                     results: Dict[int, OperatorResult]) -> OperatorResult:
        """Functional execution of the chain (shared numpy work)."""
        database = self.ctx.database
        result = None
        for op in pipeline.operators:
            child_results = [results[c.op_id] for c in op.children]
            result = op.produce(database, child_results)
            results[op.op_id] = result
        return result

    def _stream_bytes(self, pipeline: Pipeline,
                      results: Dict[int, OperatorResult], device) -> int:
        """Bytes the pipeline streams over the bus to ``device``."""
        stream_bytes = 0
        for key in pipeline.required_columns():
            if key not in device.cache:
                stream_bytes += self.ctx.database.column(key).nominal_bytes
        for child_result in pipeline.inputs(results):
            if child_result.location != device.name:
                stream_bytes += child_result.nominal_bytes
        return stream_bytes

    def _compute_seconds(self, pipeline: Pipeline,
                         results: Dict[int, OperatorResult]):
        """``[CPU, GPU]`` compute seconds of the chain, each operator
        sized once."""
        ctx = self.ctx
        sized = [(op.kind, op.input_nominal_bytes(
            ctx.database, [results[c.op_id] for c in op.children]))
            for op in pipeline.operators]
        return [sum(ctx.profile.compute_seconds(op_kind, kind, input_bytes)
                    for op_kind, input_bytes in sized)
                for kind in (ProcessorKind.CPU, ProcessorKind.GPU)]

    def _attempt_device_once(self, pipeline: Pipeline,
                             results: Dict[int, OperatorResult],
                             result: OperatorResult,
                             device_name: str, start: float,
                             qctx, seconds) -> Generator:
        """One device attempt; returns the fault when it aborts."""
        ctx = self.ctx
        env = ctx.env
        device = ctx.hardware.device(device_name)
        stream_bytes = self._stream_bytes(pipeline, results, device)
        cpu_seconds, gpu_seconds = seconds

        split = 0.0  # fraction of vectors handled by the host
        if gpu_seconds > 0:
            if ctx.split is not None:
                # the split cost model's balance point: accounts for
                # the PCIe stream (zero on a coupled platform) and any
                # fixed --split-ratio override
                split = ctx.split.vector_ratio(
                    ctx, cpu_seconds, gpu_seconds, stream_bytes
                )
            else:
                # balance completion: the host takes the share that
                # makes both sides finish together
                gpu_rate = 1.0 / gpu_seconds
                cpu_rate = 1.0 / cpu_seconds if cpu_seconds > 0 else 0.0
                split = cpu_rate / (cpu_rate + gpu_rate)

        lease = DeviceLease(ctx, device, pipeline.terminal.label)
        try:
            # the breaker's materialised output (or hash table) is the
            # pipeline's only heap demand — vectors themselves stream
            lease.allocate(result.nominal_bytes)
            if ctx.bus.asynchronous and stream_bytes:
                # double-buffered streaming: the async link moves
                # vector k+1 while the kernel consumes vector k
                gpu_done = env.process(self._stream_vectors(
                    device, int(stream_bytes * (1 - split)),
                    gpu_seconds * (1 - split),
                ))
            else:
                if stream_bytes:
                    # one copy overlapping the kernel, joined below
                    lease.spawn(ctx.bus.transfer(
                        int(stream_bytes * (1 - split)), "h2d",
                        device=device_name))
                gpu_done = device.processor.submit(gpu_seconds * (1 - split))
            cpu_done = ctx.hardware.cpu.submit(cpu_seconds * split)
            yield env.all_of([gpu_done, cpu_done])
            yield from lease.join()
            ctx.metrics.record_operator(device.processor.name,
                                        gpu_seconds * (1 - split))
            if split > 0:
                ctx.metrics.record_operator("cpu", cpu_seconds * split)
            lease.retain(result)
            return result
        except DeviceFault as fault:
            account_abort(ctx, pipeline.terminal, device_name, fault, start,
                          qctx)
            return fault
        finally:
            # covers the fault path *and* a cancellation interrupt while
            # blocked on the device — the heap never leaks either way
            lease.release()

    def _stream_vectors(self, device, stream_bytes: int,
                        compute_seconds: float) -> Generator:
        """DES process: double-buffered vector streaming (Sec. 5.5).

        The pipeline's uncached inputs move one chunk-sized vector at a
        time over the device's h2d channel; vector ``k+1`` is on the
        wire while the kernel consumes vector ``k``, so the pipeline
        costs roughly ``max(transfer, compute)`` plus one vector of
        fill latency.  An injected PCIe fault or a kernel fault fails
        this process, which the caller observes through ``all_of``.
        """
        link = self.ctx.bus
        chunk = link.chunk_bytes
        remaining = int(stream_bytes)
        vectors = max(1, -(-remaining // chunk))
        per_compute = compute_seconds / vectors
        pending = None
        for _ in range(vectors):
            vector_bytes = min(chunk, remaining)
            remaining -= vector_bytes
            yield from link.transfer(vector_bytes, "h2d",
                                     device=device.name)
            if pending is not None:
                yield pending
            pending = device.processor.submit(per_compute)
            # a stall-failing kernel whose stream dies first must not
            # escalate as an unwaited failure
            pending.defused = True
        if pending is not None:
            yield pending

    def _run_on_cpu(self, pipeline: Pipeline,
                    results: Dict[int, OperatorResult],
                    result: OperatorResult,
                    cpu_seconds: float) -> Generator:
        ctx = self.ctx
        # inputs produced on a device stream back to the host
        yield from pull_to_host(ctx, pipeline.inputs(results))
        yield from ctx.hardware.cpu.execute(cpu_seconds)
        result.location = "cpu"
