"""The operator lifecycle inside the simulation.

This implements the paper's fault-tolerant operator execution
(Sec. 2.5.1, 4.1):

1. *Stage inputs.*  On the GPU, base columns must be device-resident:
   cached columns are hits; misses are transferred over PCIe and — under
   operator-driven data placement — admitted to the cache, evicting
   victims (the cache-thrashing mechanism).  Child intermediates living
   on the other processor are transferred too.
2. *Allocate working memory.*  The operator's heap footprint
   (e.g. 3.25x input for selections) is allocated up front; failures
   raise immediately — CoGaDB aborts rather than waits to avoid
   allocation deadlocks.
3. *Compute.*  The kernel occupies a device slot for the calibrated
   time, then the functional numpy implementation materialises the
   result.
4. *Keep the result resident.*  The result stays on the producing
   processor until the (single) consumer has read it.
5. *Abort and restart.*  Any device allocation failure aborts the
   operator: wasted time (begin to abort) is recorded, device state is
   rolled back, and the operator restarts on the CPU.

With fault injection active (:mod:`repro.faults`) an attempt can also
die of a *transient* fault (PCIe error, kernel launch failure, stall,
reset, heap-pressure spike).  Those are retried with exponential
backoff in simulated time — bounded by the retry policy and gated by
the device's circuit breaker — before the operator takes the same CPU
fallback.  A genuine out-of-memory abort still falls back immediately:
retrying a full heap is pointless (Sec. 2.5.1).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.engine.execution.context import ExecutionContext
from repro.engine.execution.lease import DeviceLease, pull_to_host
from repro.engine.execution.lifecycle import QueryContext
from repro.engine.execution.resilience import account_abort
from repro.engine.intermediates import OperatorResult
from repro.engine.operators import PhysicalOperator
from repro.hardware import DeviceFault
from repro.hardware.processor import ProcessorKind
from repro.hype import choose_algorithm


def execute_operator(
    ctx: ExecutionContext,
    op: PhysicalOperator,
    child_results: List[OperatorResult],
    processor_name: str,
    admit_to_cache: bool = True,
    *,
    qctx: QueryContext,
    input_bytes: int,
) -> Generator:
    """DES process: run one operator, with GPU fault tolerance.

    Returns the :class:`OperatorResult`; its ``location`` records where
    the result resides.  Consumed child results release their device
    memory here (single-consumer plans).  ``input_bytes`` is the
    operator's input size, from ``place_operator``.

    ``qctx`` (a :class:`~repro.engine.execution.lifecycle.QueryContext`)
    makes execution *cancellable*: cooperative checkpoints raise
    :class:`~repro.engine.execution.lifecycle.QueryCancelled` between
    attempts, and the produced result is tracked so a later cancel can
    release its device memory.
    """
    qctx.check()
    ctx.database.statistics.record_accesses(op.column_keys(), ctx.env.now)

    result: Optional[OperatorResult] = None
    if processor_name != "cpu" and not op.cpu_only:
        device = ctx.hardware.device(processor_name)
        if ctx.split is not None:
            # intra-operator co-processing: divide the operator between
            # the CPU and this device; None = declined, run pure
            result = yield from ctx.split.try_split(
                ctx, device, op, child_results, input_bytes, qctx,
            )
        if result is None:
            # device attempts under the retry policy and the device's
            # circuit breaker; None = restart on the CPU
            result = yield from ctx.resilience.attempts(
                ctx.env, device.name, _try_gpu,
                (ctx, device, op, child_results, input_bytes,
                 admit_to_cache, qctx),
                op.plan_name, qctx,
            )
    if result is None:
        qctx.check()
        result = yield from _run_cpu(ctx, op, child_results, input_bytes)
    for child in child_results:
        child.release_device_memory()
    qctx.track(result)
    return result


def _try_gpu(ctx, device, op, child_results, input_bytes, admit_to_cache,
             qctx):
    """One co-processor attempt; returns the fault when it aborts.

    Device memory is allocated in several steps and held (the paper's
    operators cannot pre-compute a concise upper bound, Sec. 2.5.1):
    staged inputs first, then half the working memory, the second half
    mid-kernel, and finally the result buffer.  A failure at any later
    step wastes everything done so far — that is the *wasted time* the
    paper measures.  Every abort rolls the device fully back (the
    :class:`~repro.engine.execution.lease.DeviceLease`) before the
    caller decides between a retry and the CPU fallback.
    """
    env = ctx.env
    gpu = device.processor
    link = ctx.bus
    start = env.now
    #: on the async link copies run as background processes overlapping
    #: the kernel (Sec. 5.5); the operator completes once both its
    #: compute and its transfers have finished
    lease = DeviceLease(ctx, device, op.label, link.asynchronous)
    try:
        # 1. Stage base columns.
        for key in op.column_keys():
            if not lease.hit(key):
                yield from lease.miss(
                    key, ctx.database.column(key).nominal_bytes,
                    admit_to_cache)
        # 2. Stage child intermediates living elsewhere; a result on a
        #    *different* co-processor crosses the bus twice (device to
        #    host, then host to this device).
        for child in child_results:
            if child.location != device.name:
                if link.asynchronous:
                    # full-duplex channels no longer serialise the two
                    # hops; chain them explicitly in one background copy
                    lease.stage(child.nominal_bytes)
                    lease.spawn(_relay_child(link, child, device.name))
                    continue
                if child.location != "cpu":
                    yield from lease.copy(child.nominal_bytes, "d2h")
                lease.stage(child.nominal_bytes)
                yield from lease.copy(child.nominal_bytes, "h2d")
        # 3. First half of the working memory, held while queueing.
        footprint = op.device_footprint_bytes(
            ctx.profile, ctx.database, child_results, input_bytes)
        working_target = max(footprint - lease.staged_bytes, 0)
        first_half = working_target // 2
        lease.allocate(first_half)
        # 4. Compute; the second allocation step happens mid-kernel and
        #    can fail after real work was done.
        algorithm_key, seconds = _pick_algorithm(
            ctx, op, ProcessorKind.GPU, input_bytes)
        yield gpu.submit(seconds / 2)
        lease.allocate(working_target - first_half)
        yield gpu.submit(seconds / 2)
        # Streaming mode: the kernel consumed blocks as they arrived;
        # the operator is done once the tail of the transfers landed.
        if lease.inflight:
            yield from lease.join()
        ctx.metrics.record_operator(gpu.name, seconds)
        result = op.produce(ctx.database, child_results)
        # 5. The result stays on the device heap until the consumer has
        #    read it.
        lease.retain(result)
        _record_execution(ctx, op, device.name, ProcessorKind.GPU,
                          algorithm_key, input_bytes, seconds, start)
        return result
    except DeviceFault as fault:
        account_abort(ctx, op, device.name, fault, start, qctx)
        return fault
    finally:
        lease.release()


def _relay_child(link, child, target_device):
    """DES process: relay a child intermediate to ``target_device``.

    On a different co-processor the result hops device-to-host first,
    then host-to-device; the async link's channels would otherwise let
    the two hops run concurrently, so they are chained in one process."""
    if child.location != "cpu":
        yield from link.transfer(child.nominal_bytes, "d2h",
                                 device=child.location)
    yield from link.transfer(child.nominal_bytes, "h2d",
                             device=target_device)


def _run_cpu(ctx, op, child_results, input_bytes):
    """CPU execution (native placement or fallback after an abort)."""
    start = ctx.env.now
    yield from pull_to_host(ctx, child_results)
    algorithm_key, seconds = _pick_algorithm(
        ctx, op, ProcessorKind.CPU, input_bytes)
    yield from ctx.hardware.cpu.execute(seconds)
    result = op.produce(ctx.database, child_results)
    result.location = "cpu"
    _record_execution(ctx, op, "cpu", ProcessorKind.CPU, algorithm_key,
                      input_bytes, seconds, start)
    return result


def _pick_algorithm(ctx, op, kind, input_bytes):
    """(cost key, calibrated seconds) of ``op`` on a ``kind`` processor;
    HyPE selects the physical algorithm for the exact input size
    (Sec. 5.2) unless algorithm selection is off."""
    algorithm_key = op.kind
    if ctx.algorithm_selection:
        algorithm_key, _ = choose_algorithm(
            ctx.cost_model, ctx.profile, op.kind, kind, input_bytes)
    return algorithm_key, ctx.profile.compute_seconds(
        algorithm_key, kind, input_bytes)


def _record_execution(ctx, op, processor_name, kind, algorithm_key,
                      input_bytes, seconds, start):
    """Feed one finished execution back: HyPE learns the operator's and
    the chosen algorithm's runtime, the trace gets its span."""
    ctx.cost_model.observe(op.kind, kind, input_bytes, seconds)
    if algorithm_key != op.kind:
        ctx.cost_model.observe(algorithm_key, kind, input_bytes, seconds)
    ctx.metrics.record_algorithm(algorithm_key)
    if ctx.trace is not None:
        ctx.trace.record(op.label, op.kind, processor_name, op.plan_name,
                         start, ctx.env.now)
