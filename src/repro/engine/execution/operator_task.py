"""The operator lifecycle inside the simulation: one device attempt.

The paper's fault-tolerant execution (Sec. 2.5.1, 4.1) is one protocol,
and :func:`device_attempt` is its one body — for an operator placed on
a co-processor, for the device share of a split operator, and for a
pipeline of the vectorized model:

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
#: ``1 - r``, arXiv 1307.1955), STREAM nothing — vectors move beside
#: the kernel (a pipeline, Sec. 5.5; its share is the vector split).
STAGE, SHARE, STREAM = "stage", "share", "stream"


def device_attempt(ctx, device, work, child_results, input_bytes, qctx,
                   inputs=STAGE, share=1.0, admit=True, since=None):
    """One co-processor attempt of ``work`` (an operator, or a pipeline
    as a composite operator) with the device share ``share`` (1 for a
    pure placement); returns the result, or the fault it aborted with.

    Wasted time counts from ``since`` (the attempt's start by default).
    The forms keep the order of their steps, which decides when an
    out-of-memory abort fires and which seeded fault roll a
    ``heap.allocate`` / ``transfer`` / ``submit`` consumes:

    * a pure child is allocated, then copied; a split child copied,
      then allocated;
    * a pure placement allocates its working memory in two halves
      around the kernel, a split share and a pipeline in one step
      before it;
    * a split submits its CPU share first, books a device fault once
      that share landed, runs the device's share on the CPU and returns
      the operator's result; a pipeline submits its device share first
      and, like a pure placement, books a fault at once and returns it.
    """
    env = ctx.env
    gpu = device.processor
    link = ctx.bus
    start = env.now
    since = start if since is None else since
    coupled = inputs is SHARE and ctx.split.config.coupled
    if inputs is not STAGE:  # (CPU, GPU) seconds of the whole work
        t_cpu, t_gpu = work.seconds if inputs is STREAM else (
            ctx.profile.compute_seconds(work.kind, kind, input_bytes)
            for kind in (ProcessorKind.CPU, ProcessorKind.GPU))
    # on the async link a pure placement's copies run as background
    # processes overlapping the kernel (Sec. 5.5); it completes once
    # both its compute and its transfers have finished
    lease = DeviceLease(ctx, device, work.label,
                        inputs is STAGE and link.asynchronous)
    cpu_event = None
    cpu_share = cpu_seconds = gpu_seconds = 0.0
    done = 0.0  # fraction of the work the device completed
    try:
        try:
            if inputs is SHARE:
                # the CPU share needs every device-resident child
                # host-side, whatever happens to the device share
                yield from pull_to_host(ctx, child_results)
            if inputs is not STREAM and not coupled:
                # 1. Stage base columns ...
                for key in work.column_keys():
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
            footprint = work.device_footprint_bytes(
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
                    ctx, work, ProcessorKind.GPU, input_bytes)
                yield gpu.submit(gpu_seconds / 2)
                lease.allocate(working - first)
                yield gpu.submit(gpu_seconds / 2)
            else:
                if inputs is SHARE:
                    # a copy still on the wire (coalesced onto) must
                    # land before the device share starts
                    yield from lease.join()
                    qctx.check()
                    since = env.now
                    cpu_share = 1.0 - share
                else:
                    streamed = work.stream_bytes(ctx.database,
                                                 child_results, device)
                    cpu_share = work.host_share(ctx, streamed)
                    share = 1 - cpu_share
                cpu_seconds = t_cpu * cpu_share
                gpu_seconds = t_gpu * share
                if inputs is SHARE:
                    cpu_event = ctx.hardware.cpu.submit(cpu_seconds)
                if inputs is STREAM and link.asynchronous and streamed:
                    gpu_event = env.process(_stream_vectors(
                        link, device, int(streamed * share), gpu_seconds))
                else:
                    if inputs is STREAM and streamed:
                        # one copy overlapping the kernel
                        lease.spawn(link.transfer(int(streamed * share),
                                                  "h2d", device=device.name))
                    gpu_event = gpu.submit(gpu_seconds)
                if cpu_event is None:
                    cpu_event = ctx.hardware.cpu.submit(cpu_seconds)
                gpu_event.defused = cpu_event.defused = True
                yield env.all_of([gpu_event, cpu_event])
                if inputs is SHARE:
                    ctx.resilience.record_success(device.name, env.now)
            if lease.inflight:
                yield from lease.join()
            done = share
            if inputs is not SHARE:
                result = work.produce(ctx.database, child_results)
                ctx.metrics.record_operator(gpu.name, gpu_seconds)
                if cpu_share > 0.0:
                    ctx.metrics.record_operator("cpu", cpu_seconds)
                # 4. The result stays on the device heap until the
                #    consumer has read it.
                lease.retain(result)
        except DeviceFault as fault:
            if inputs is SHARE:
                if cpu_event is None:
                    lease.release()  # staging failed: give it back now
                else:
                    yield cpu_event  # the CPU share lands first
            wasted = account_abort(ctx, work, device.name, fault, since,
                                   qctx)
            if inputs is not SHARE:
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
            result = work.produce(ctx.database, child_results)
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
                    work.kind, ProcessorKind.CPU,
                    input_bytes * (1.0 - done), cpu_seconds,
                    source="split")
            if done > 0.0:
                ctx.cost_model.observe(
                    work.kind, ProcessorKind.GPU,
                    input_bytes * done, gpu_seconds, source="split")
            # chosen: the GPU fraction picked up front; realized: the
            # one it completed (zero when the split degraded)
            metrics.count("split_operators", degraded=not done)
            metrics.count("split_chosen_ratio", share)
            metrics.count("split_realized_ratio", done)
            metrics.count("split_gpu_seconds", gpu_seconds)
            metrics.count("split_cpu_seconds", cpu_seconds)
        elif inputs is STAGE:
            _record_execution(ctx, work, ProcessorKind.GPU, algorithm_key,
                              input_bytes, gpu_seconds)
        if ctx.trace is not None:
            ctx.trace.record(
                work.label, work.kind,
                device.name if inputs is STAGE else "cpu+" + device.name,
                work.plan_name, start, env.now)
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


def _stream_vectors(link, device, stream_bytes: int,
                    compute_seconds: float) -> Generator:
    """DES process: double-buffered vector streaming (Sec. 5.5).

    The pipeline's uncached inputs move one chunk-sized vector at a
    time over the device's h2d channel; vector ``k+1`` is on the wire
    while the kernel consumes vector ``k``, so the pipeline costs
    roughly ``max(transfer, compute)`` plus one vector of fill latency.
    An injected PCIe fault or a kernel fault fails this process, which
    the attempt observes through ``all_of``.
    """
    chunk = link.chunk_bytes
    remaining = int(stream_bytes)
    vectors = max(1, -(-remaining // chunk))
    per_compute = compute_seconds / vectors
    pending = None
    for _ in range(vectors):
        vector_bytes = min(chunk, remaining)
        remaining -= vector_bytes
        yield from link.transfer(vector_bytes, "h2d", device=device.name)
        if pending is not None:
            yield pending
        pending = device.processor.submit(per_compute)
        # a stall-failing kernel whose stream dies first must not
        # escalate as an unwaited failure
        pending.defused = True
    if pending is not None:
        yield pending


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
