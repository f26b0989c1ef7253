"""The operator lifecycle inside the simulation: one device attempt.

The paper's fault-tolerant execution (Sec. 2.5.1, 4.1) is one protocol,
and :func:`device_attempt` is its one body — for an operator placed on
a co-processor and for the device share of a split operator:

1. *Stage inputs.*  Cached base columns are hits; misses cross PCIe
   and, under operator-driven data placement, are admitted to the
   cache, evicting victims (the cache-thrashing mechanism).  Child
   intermediates living elsewhere cross too.
2. *Allocate working memory* (e.g. 3.25x input for selections);
   failures raise at once — CoGaDB aborts rather than waits, to avoid
   allocation deadlocks.
3. *Compute*: the kernel holds a device slot for the calibrated time.
4. *Keep the result resident* until its (single) consumer read it.
5. *Abort and restart*: any device failure books the wasted time
   (begin to abort), rolls the device back and restarts on the CPU.

Injected *transient* faults (:mod:`repro.faults`: PCIe error, launch
failure, stall, reset, heap-pressure spike) are retried with backoff
under the device's circuit breaker first
(:meth:`~repro.engine.execution.resilience.ResilienceManager.attempts`);
a genuine out-of-memory abort falls back at once: retrying a full heap
is pointless (Sec. 2.5.1).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.engine.execution.context import ExecutionContext
from repro.engine.execution.lease import DeviceLease, pull_to_host
from repro.engine.execution.lifecycle import QueryContext
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
                ctx.env, device.name, device_attempt,
                (ctx, device, op, child_results, input_bytes, qctx,
                 STAGE, 1.0, admit_to_cache),
                op.plan_name, qctx,
            )
    if result is None:
        qctx.check()
        result = yield from _run_cpu(ctx, op, child_results, input_bytes)
    for child in child_results:
        child.release_device_memory()
    qctx.track(result)
    return result


#: How an attempt's inputs reach the device: STAGE copies whole
#: columns and children onto its heap (a pure placement), SHARE the
#: device's share ``r`` of them (a split share beside a CPU share
#: ``1 - r``, arXiv 1307.1955).
STAGE, SHARE = "stage", "share"


def device_attempt(ctx, device, op, child_results, input_bytes, qctx,
                   inputs=STAGE, share=1.0, admit=True):
    """One co-processor attempt of ``op`` with the device share
    ``share`` (1 for a pure placement); returns the result, or the fault
    it aborted with.

    The two forms keep the order of their steps, which decides when an
    out-of-memory abort fires and which seeded fault roll a
    ``heap.allocate`` / ``transfer`` / ``submit`` consumes:

    * a pure child is allocated, then copied; a split child copied,
      then allocated;
    * a pure placement allocates its working memory in two halves
      around the kernel, a split share in one step before it;
    * a pure placement books a device fault at once and returns it; a
      split submits its CPU share first, books a device fault once that
      share landed, runs the device's share on the CPU and returns the
      operator's result.
    """
    env = ctx.env
    gpu = device.processor
    link = ctx.bus
    start = since = env.now
    coupled = inputs is SHARE and ctx.split.config.coupled
    if inputs is SHARE:  # (CPU, GPU) seconds of the whole operator
        t_cpu, t_gpu = (
            ctx.profile.compute_seconds(op.kind, kind, input_bytes)
            for kind in (ProcessorKind.CPU, ProcessorKind.GPU))
    # on the async link a pure placement's copies run as background
    # processes overlapping the kernel (Sec. 5.5); it completes once
    # both its compute and its transfers have finished
    lease = DeviceLease(ctx, device, op.label,
                        inputs is STAGE and link.asynchronous)
    cpu_event = None
    cpu_share = cpu_seconds = gpu_seconds = 0.0
    done = 0.0  # fraction of the operator the device completed
    try:
        try:
            if inputs is SHARE:
                # the CPU share needs every device-resident child
                # host-side, whatever happens to the device share
                yield from pull_to_host(ctx, child_results)
            if not coupled:
                # 1. Stage base columns ...
                for key in op.column_keys():
                    if not lease.hit(key):
                        yield from lease.miss(
                            key, ctx.database.column(key).nominal_bytes,
                            admit, share)
                # ... and child intermediates living elsewhere.
                for child in child_results:
                    if child.location == device.name:
                        continue
                    if inputs is SHARE:
                        nbytes = int(child.nominal_bytes * share)
                        yield from lease.copy(nbytes, "h2d")
                        lease.stage(nbytes)
                    elif link.asynchronous:
                        # full-duplex channels no longer serialise the
                        # two hops; chain them in one background copy
                        lease.stage(child.nominal_bytes)
                        lease.spawn(_relay_child(link, child, device.name))
                    else:
                        # a result on a *different* co-processor crosses
                        # the bus twice (device to host, host to here)
                        if child.location != "cpu":
                            yield from lease.copy(child.nominal_bytes,
                                                  "d2h")
                        lease.stage(child.nominal_bytes)
                        yield from lease.copy(child.nominal_bytes, "h2d")
            # 2. Working memory, held while queueing.
            footprint = op.device_footprint_bytes(
                ctx.profile, ctx.database, child_results, input_bytes)
            if inputs is SHARE:
                footprint = int(footprint * share)
            working = max(footprint - lease.staged_bytes, 0)
            first = working // 2 if inputs is STAGE else working
            lease.allocate(first)
            # 3. Compute.
            if inputs is STAGE:
                # the second allocation step happens mid-kernel and can
                # fail after real work was done
                algorithm_key, gpu_seconds = _pick_algorithm(
                    ctx, op, ProcessorKind.GPU, input_bytes)
                yield gpu.submit(gpu_seconds / 2)
                lease.allocate(working - first)
                yield gpu.submit(gpu_seconds / 2)
            else:
                # a copy still on the wire (coalesced onto) must land
                # before the device share starts
                yield from lease.join()
                qctx.check()
                since = env.now
                cpu_share = 1.0 - share
                cpu_seconds = t_cpu * cpu_share
                gpu_seconds = t_gpu * share
                cpu_event = ctx.hardware.cpu.submit(cpu_seconds)
                gpu_event = gpu.submit(gpu_seconds)
                gpu_event.defused = cpu_event.defused = True
                yield env.all_of([gpu_event, cpu_event])
                ctx.resilience.record_success(device.name, env.now)
            if lease.inflight:
                yield from lease.join()
            done = share
            if inputs is STAGE:
                result = op.produce(ctx.database, child_results)
                ctx.metrics.record_operator(gpu.name, gpu_seconds)
                # 4. The result stays on the device heap until the
                #    consumer has read it.
                lease.retain(result)
        except DeviceFault as fault:
            if inputs is SHARE:
                if cpu_event is None:
                    lease.release()  # staging failed: give it back now
                else:
                    yield cpu_event  # the CPU share lands first
            wasted = account_abort(ctx, op, device.name, fault, since,
                                   qctx)
            if inputs is STAGE:
                return fault
            # the split degrades: its device share is wasted and runs
            # on the CPU after the CPU share
            ctx.metrics.count("split_wasted_seconds", wasted)
            if fault.transient:
                ctx.resilience.record_failure(device.name, env.now)
            else:
                ctx.resilience.record_success(device.name, env.now)
            qctx.check()
            rest = 1.0 - cpu_share
            cpu_event = ctx.hardware.cpu.submit(t_cpu * rest)
            cpu_event.defused = True
            yield cpu_event
            cpu_seconds += t_cpu * rest
            gpu_seconds = 0.0
        if inputs is SHARE:
            # the split merges at the breaker, on the host
            result = op.produce(ctx.database, child_results)
            merge_bytes = 0 if coupled else int(result.nominal_bytes * done)
            if merge_bytes > 0:
                # result delivery: never fault-injected, like the CPU
                # fallback path
                yield from ctx.hardware.host_transfer(
                    merge_bytes, "d2h", device=device.name)
            result.location = "cpu"
            metrics = ctx.metrics
            metrics.record_operator("cpu", cpu_seconds)
            if gpu_seconds > 0.0:
                metrics.record_operator(gpu.name, gpu_seconds)
            # per-device realized throughput feeds HyPE, so later pure
            # placements learn from split runs too
            if cpu_seconds > 0.0:
                ctx.cost_model.observe(
                    op.kind, ProcessorKind.CPU,
                    input_bytes * (1.0 - done), cpu_seconds,
                    source="split")
            if done > 0.0:
                ctx.cost_model.observe(
                    op.kind, ProcessorKind.GPU,
                    input_bytes * done, gpu_seconds, source="split")
            # chosen: the GPU fraction picked up front; realized: the
            # one it completed (zero when the split degraded)
            metrics.count("split_operators", degraded=not done)
            metrics.count("split_chosen_ratio", share)
            metrics.count("split_realized_ratio", done)
            metrics.count("split_gpu_seconds", gpu_seconds)
            metrics.count("split_cpu_seconds", cpu_seconds)
        else:
            _record_execution(ctx, op, ProcessorKind.GPU, algorithm_key,
                              input_bytes, gpu_seconds)
        if ctx.trace is not None:
            ctx.trace.record(
                op.label, op.kind,
                device.name if inputs is STAGE else "cpu+" + device.name,
                op.plan_name, start, env.now)
        return result
    finally:
        lease.release()


def account_abort(ctx, op, device: str, fault: DeviceFault, start: float,
                  qctx) -> float:
    """Book one aborted device attempt of ``op``: the time since
    ``start`` is wasted (the paper's metric, Sec. 2.5.1), attributed to
    the query, the faulting device, the fault class and the owning
    tenant, and shown on the trace as an aborted span of ``device``.
    Returns the wasted seconds."""
    now = ctx.env.now
    wasted = now - start
    ctx.metrics.record_abort(wasted, query=op.plan_name,
                             device=fault.device or device,
                             fault=fault.fault_class,
                             tenant=qctx.tenant)
    if ctx.trace is not None:
        ctx.trace.record(op.label, op.kind, device, op.plan_name,
                         start, now, aborted=True, fault=fault.fault_class)
    return wasted


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
    _record_execution(ctx, op, ProcessorKind.CPU, algorithm_key,
                      input_bytes, seconds)
    if ctx.trace is not None:
        ctx.trace.record(op.label, op.kind, "cpu", op.plan_name, start,
                         ctx.env.now)
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


def _record_execution(ctx, op, kind, algorithm_key, input_bytes, seconds):
    """Feed one finished execution back: HyPE learns the operator's and
    the chosen algorithm's runtime."""
    ctx.cost_model.observe(op.kind, kind, input_bytes, seconds)
    if algorithm_key != op.kind:
        ctx.cost_model.observe(algorithm_key, kind, input_bytes, seconds)
    ctx.metrics.record_algorithm(algorithm_key)
