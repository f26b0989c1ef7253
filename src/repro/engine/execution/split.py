"""Intra-operator co-processing: split one operator across CPU + GPU.

Placement in this system is all-or-nothing per operator, and hedging
(PR5) buys robustness by running *redundant* copies.  "Revisiting
Co-Processing for Hash Joins on the Coupled CPU-GPU Architecture"
(arXiv 1307.1955) shows a third point in the design space: divide one
operator's work between the processors by a *ratio*, so both devices
contribute and neither the GPU's heap ceiling nor the CPU's throughput
floor caps the operator alone.

This module implements that split over the morsel substrate of
:mod:`repro.engine.morsel`:

* **Identity gate first.**  At warm-up, :meth:`SplitState.prepare`
  executes every query's fused pipeline as *two* chunk schedules (an
  even split and an uneven three-way split), merges the partials at
  the breaker exactly as the morsel pool does, and compares the result
  byte-for-byte against the operator path.  Only plans that
  pass may split; everything else declines silently (reason-counted)
  and runs on the ordinary pure placement — the same contract every
  prior layer honours.
* **Ratio from HyPE.**  :class:`~repro.hype.models.SplitCostModel`
  picks the GPU work fraction ``r* = t_c / (t_c + t_g + t_x)`` from
  the learned per-device runtimes and the PCIe transfer time of the
  operator's input, blended with the placement strategy's
  ``ratio_hint`` (fraction of inputs already device-resident).  On a
  coupled system (``SystemConfig.coupled``) ``t_x`` is zero and the
  ratio shifts toward the GPU — the paper's headline effect.
* **Mid-operator rebalancing.**  The operator runs in
  ``split_rounds`` rounds; at each boundary the load tracker is
  refreshed (:meth:`~repro.hype.load.LoadTracker.refresh`) and the
  remaining work re-divided as queue depths and breaker states shift.
* **Graceful degradation.**  A device fault mid-round wastes only that
  round's GPU share (recorded as split wasted work); the remaining
  work degrades to pure CPU.  An open breaker (PR3) or a nearing
  deadline (PR5) degrades the same way; cancellation (PR5) unwinds
  both halves through the ``finally`` rollback, leaving no residue.

The simulated timing divides between the devices; the *result* is
still served by ``op.produce`` (the memoised functional layer), so a
split execution is byte-identical to a pure one by construction — the
warm-up gate is what proves the division itself would merge
identically if the work were physically divided, mirroring how the
morsel pool validates its chunk merges.

Zero overhead when disabled: ``ctx.split`` stays ``None`` and the
dispatch hook is a single ``is not None`` test.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.engine import morsel
from repro.engine.execution.context import resident_fraction
from repro.engine.execution.functional import execute_operators
from repro.engine.execution.lease import DeviceLease, pull_to_host
from repro.engine.execution.resilience import account_abort
from repro.hardware import DeviceFault
from repro.hardware.processor import ProcessorKind
from repro.hype.models import SplitCostModel

#: Operator kinds eligible for splitting: chunkable over the fact
#: range (selections, materialising projections), probe-partitionable
#: (joins), or partial-merge aggregations — the shapes the morsel
#: substrate proves.
SPLIT_KINDS = frozenset(("selection", "join", "groupby", "projection"))

#: Below this share the split degenerates: run the pure placement.
MIN_SHARE = 0.05

#: Ratio changes smaller than this do not count as a rebalance.
REBALANCE_EPSILON = 0.01

#: Decline to split when the device's queued *other* work exceeds this
#: multiple of the op's own GPU share — a split's rounds couple the CPU
#: half to the device queue, so splitting onto a congested device slows
#: the operator below its pure-CPU time.
BUSY_FACTOR = 1.0

#: Degrade to pure CPU when the deadline margin falls below this
#: multiple of the estimated remaining makespan.  This is the default
#: for ``SystemConfig.deadline_safety``; service mode overrides it per
#: SLO class through ``QueryContext.deadline_safety``.
DEADLINE_SAFETY = 2.0


def merged_split_result(pipe, boundaries):
    """Run ``pipe`` as chunks cut at ``boundaries`` and merge at the
    breaker — the same absorb/replay/finalize/tail sequence the morsel
    pool applies.  Returns the root :class:`OperatorResult`."""
    rows = pipe.fact_rows
    edges = sorted({0, rows}
                   | {min(max(int(b), 0), rows) for b in boundaries})
    chunks = (list(zip(edges[:-1], edges[1:]))
              if rows > 0 else [(0, 0)])
    return pipe.merge(pipe.run_chunk(start, stop) for start, stop in chunks)


class SplitState:
    """Per-run split-execution state hung off the execution context."""

    def __init__(self, config, cost_model, strategy=None):
        self.config = config
        self.model = SplitCostModel(cost_model)
        self.strategy = strategy
        #: plan names whose chunked merge proved byte-identical
        self.splittable = set()
        #: plan names that failed or declined the gate (skip quickly)
        self.ungated = set()

    # -- warm-up identity gate ----------------------------------------

    def prepare(self, database, queries, metrics=None) -> None:
        """Gate every query template: chunk-merge it two ways and
        require byte identity with the operator path.  Failures
        decline silently (the plan simply never splits)."""
        for query in queries:
            reason = self._gate_query(database, query)
            if reason is None:
                self.splittable.add(query.name)
            else:
                self.ungated.add(query.name)
                if metrics is not None:
                    metrics.count("split_declines", reason=reason)

    def _gate_query(self, database, query) -> Optional[str]:
        """None when the query may split, else the decline reason."""
        try:
            reference = execute_operators(query.instantiate(), database)
            pipe = morsel.build(query.instantiate(), database)
            if not pipe.supports_partials:
                return "no_partials"
            rows = pipe.fact_rows
            schedules = ([rows // 2],
                         [rows // 4, rows // 2, (3 * rows) // 4])
            for boundaries in schedules:
                merged = merged_split_result(pipe, boundaries)
                if (merged.payload.row_tuples()
                        != reference.payload.row_tuples()
                        or merged.actual_rows != reference.actual_rows
                        or merged.nominal_rows != reference.nominal_rows
                        or merged.row_width_bytes
                        != reference.row_width_bytes):
                    return "identity"
            return None
        except morsel.Decline as decline:
            return decline.reason
        except Exception:
            return "error"

    # -- ratio selection ----------------------------------------------

    def _transfer_seconds(self, ctx, nbytes: float) -> float:
        """PCIe time for ``nbytes`` (zero on a coupled platform)."""
        return 0.0 if self.config.coupled else ctx.bus.transfer_time(nbytes)

    def choose_ratio(self, ctx, op, device, input_bytes: float) -> float:
        """Up-front GPU fraction for one operator."""
        if self.config.split_ratio is not None:
            return self.config.split_ratio
        hint = None
        if self.strategy is not None:
            hint = self.strategy.ratio_hint(ctx, op, device)
        # only the non-resident share of the input actually crosses
        # the bus; a warm cache shifts the balance toward the GPU
        t_x = (self._transfer_seconds(ctx, input_bytes)
               * (1.0 - (resident_fraction(ctx, op, device) or 0.0)))
        return self.model.ratio(op.kind, input_bytes, t_x, hint=hint)

    def vector_ratio(self, ctx, cpu_seconds: float, gpu_seconds: float,
                     stream_bytes: float) -> float:
        """Host-side work fraction for the vectorized executor's
        static split: the cost model's balance point instead of the
        pure compute-rate ratio, so the PCIe stream cost (absent on a
        coupled platform) shifts vectors toward the host."""
        if self.config.split_ratio is not None:
            return 1.0 - self.config.split_ratio
        gpu_share = self.model.balance(
            cpu_seconds, gpu_seconds,
            self._transfer_seconds(ctx, stream_bytes),
        )
        return 1.0 - gpu_share

    # -- the split execution itself ------------------------------------

    def _decline(self, ctx, reason: str) -> None:
        ctx.metrics.count("split_declines", reason=reason)

    def try_split(self, ctx, device, op, child_results, input_bytes,
                  qctx) -> Generator:
        """DES process: split ``op`` between the CPU and ``device``.

        Returns the :class:`OperatorResult`, or None when the split
        declines *before any simulated time passed* — the caller then
        proceeds with the ordinary pure placement, unaffected.
        """
        env = ctx.env
        if op.kind not in SPLIT_KINDS:
            self._decline(ctx, "op_kind")
            return None
        if op.plan_name not in self.splittable:
            self._decline(ctx,
                          "identity_gate" if op.plan_name in self.ungated
                          else "ungated_plan")
            return None
        if qctx.force_cpu:
            self._decline(ctx, "force_cpu")
            return None
        if not ctx.resilience.available(device.name, env.now):
            self._decline(ctx, "breaker_open")
            return None

        footprint = op.device_footprint_bytes(
            ctx.profile, ctx.database, child_results
        )
        ratio = self.choose_ratio(ctx, op, device, input_bytes)
        ratio_cap = 1.0
        if footprint > 0 and not self.config.coupled:
            ratio_cap = min(device.heap.available / footprint, 1.0)
            ratio = min(ratio, ratio_cap)
        if ratio < MIN_SHARE:
            self._decline(ctx, "ratio_floor")
            return None
        if ratio > 1.0 - MIN_SHARE and self.config.split_ratio is None:
            self._decline(ctx, "ratio_ceiling")
            return None
        if self.config.split_ratio is None:
            # the dispatcher already queued this op's own estimate on
            # the device; anything beyond that is other operators' work
            # our rounds would wait behind
            t_gpu_est = ctx.cost_model.estimate(
                op.kind, ProcessorKind.GPU, input_bytes)
            ctx.load.refresh(device.name)
            other_load = max(
                ctx.load.estimated_completion(device.name) - t_gpu_est,
                0.0)
            if other_load > BUSY_FACTOR * max(ratio * t_gpu_est, 1e-12):
                self._decline(ctx, "device_busy")
                return None

        return (yield from self._run_split(
            ctx, device, op, child_results, input_bytes, footprint,
            ratio, ratio_cap, qctx,
        ))

    def _run_split(self, ctx, device, op, child_results, input_bytes,
                   footprint, ratio, ratio_cap, qctx) -> Generator:
        env = ctx.env
        hardware = ctx.hardware
        cpu = hardware.cpu
        gpu = device.processor
        coupled = self.config.coupled
        chosen_ratio = ratio
        start = env.now

        t_gpu_full = ctx.profile.compute_seconds(
            op.kind, ProcessorKind.GPU, input_bytes)
        t_cpu_full = ctx.profile.compute_seconds(
            op.kind, ProcessorKind.CPU, input_bytes)
        t_x = self._transfer_seconds(ctx, input_bytes)
        # the dispatcher queued this operator's own full estimate on
        # the device (eager/chopping load tracking); rebalancing must
        # compare only the *other* outstanding work, or the op sees
        # its own shadow as device pressure and starves the GPU half
        self_load = ctx.cost_model.estimate(
            op.kind, ProcessorKind.GPU, input_bytes)

        # the GPU half's device state; its copies run in the foreground
        # — a round computes on its share only once the share is there
        lease = DeviceLease(ctx, device, op.label)
        gpu_seconds = 0.0
        cpu_seconds = 0.0
        gpu_done = 0.0  # fraction of the operator the GPU completed
        rebalances = 0
        degraded = False

        def degrade(fault, round_start) -> None:
            """GPU faulted mid-round: the round's GPU share is wasted;
            the rest of the operator runs pure-CPU."""
            nonlocal ratio, degraded
            wasted = account_abort(ctx, op, device.name, fault,
                                   round_start, qctx)
            ctx.metrics.count("split_wasted_seconds", wasted)
            if fault.transient:
                ctx.resilience.record_failure(device.name, env.now)
            else:
                ctx.resilience.record_success(device.name, env.now)
            ratio = 0.0
            degraded = True

        try:
            # the CPU half needs every device-resident intermediate
            # host-side, whatever happens to the GPU half below
            yield from pull_to_host(ctx, child_results)
            # -- stage the GPU's share of the inputs ------------------
            try:
                if not coupled:
                    for key in op.column_keys():
                        if not lease.hit(key):
                            yield from lease.miss(
                                key, ctx.database.column(key).nominal_bytes,
                                share=ratio)
                    # copy, then allocate (a pure placement allocates
                    # first): the order decides when an OOM fires
                    for child in child_results:
                        if child.location != device.name:
                            share = int(child.nominal_bytes * ratio)
                            yield from lease.copy(share, "h2d")
                            lease.stage(share)
                lease.allocate(
                    max(int(footprint * ratio) - lease.staged_bytes, 0))
                # a cached column can still be on the wire (async link):
                # the first round may not start before it has landed
                yield from lease.join()
            except DeviceFault as fault:
                # staging failed — concurrent operators outran the
                # heap headroom the ratio cap was computed against, or
                # an injected transfer fault hit.  The staging time is
                # wasted; the operator degrades to pure CPU.
                lease.release()
                degrade(fault, start)

            # -- compute in rounds, rebalancing at the boundaries -----
            rounds = max(int(self.config.split_rounds), 1)
            remaining = 1.0
            round_index = 0
            while remaining > 1e-12:
                qctx.check()
                # past the planned rounds (a fault shrank a round's
                # yield), the tail runs as one final round
                frac = remaining / max(rounds - round_index, 1)
                round_index += 1
                gpu_share = frac * ratio
                cpu_share = frac * (1.0 - ratio)
                round_start = env.now
                cpu_event = cpu.submit(t_cpu_full * cpu_share)
                cpu_event.defused = True
                if gpu_share > 0.0:
                    try:
                        gpu_event = gpu.submit(t_gpu_full * gpu_share)
                        gpu_event.defused = True
                        yield env.all_of([gpu_event, cpu_event])
                    except DeviceFault as fault:
                        # the launch was rejected before any GPU time
                        # passed, or a stalled kernel failed after real
                        # simulated time: either way the CPU share of
                        # this round still lands
                        yield cpu_event
                        cpu_seconds += t_cpu_full * cpu_share
                        remaining -= cpu_share
                        degrade(fault, round_start)
                        continue
                    gpu_seconds += t_gpu_full * gpu_share
                    gpu_done += gpu_share
                    ctx.resilience.record_success(device.name, env.now)
                else:
                    yield cpu_event
                cpu_seconds += t_cpu_full * cpu_share
                remaining -= frac

                if remaining <= 1e-12 or round_index >= rounds:
                    break
                # -- round boundary: refresh load, re-divide ----------
                qctx.check()
                if ratio > 0.0 and not self._deadline_safe(
                        qctx, remaining, t_cpu_full, t_gpu_full, ratio):
                    ratio = 0.0
                    degraded = True
                    continue
                if self.config.split_ratio is not None or degraded:
                    continue
                ctx.load.refresh()
                load_gpu = max(
                    ctx.load.estimated_completion(device.name)
                    - self_load, 0.0)
                new_ratio = self.model.rebalance(
                    remaining, ratio, t_cpu_full, t_gpu_full, t_x,
                    ctx.load.estimated_completion("cpu"), load_gpu,
                )
                new_ratio = min(new_ratio, ratio_cap)
                if new_ratio == 0.0 and ratio > 0.0:
                    degraded = True
                if abs(new_ratio - ratio) > REBALANCE_EPSILON:
                    rebalances += 1
                ratio = new_ratio

            # -- merge at the breaker ---------------------------------
            result = op.produce(ctx.database, child_results)
            if not coupled and gpu_done > 0.0:
                merge_bytes = int(result.nominal_bytes * gpu_done)
                if merge_bytes > 0:
                    # result delivery: never fault-injected, like the
                    # CPU fallback path
                    yield from hardware.host_transfer(
                        merge_bytes, "d2h", device=device.name)
            result.location = "cpu"
            ctx.metrics.record_operator("cpu", cpu_seconds)
            if gpu_seconds > 0.0:
                ctx.metrics.record_operator(gpu.name, gpu_seconds)
            # feed per-device realized throughput back into HyPE so
            # subsequent *pure* placements learn from split runs too
            if cpu_seconds > 0.0:
                ctx.cost_model.observe(
                    op.kind, ProcessorKind.CPU,
                    input_bytes * (1.0 - gpu_done), cpu_seconds,
                    source="split")
            if gpu_done > 0.0:
                ctx.cost_model.observe(
                    op.kind, ProcessorKind.GPU,
                    input_bytes * gpu_done, gpu_seconds,
                    source="split")
            # chosen: the GPU work fraction the cost model picked up
            # front; realized: the fraction the GPU completed (lower
            # when the split degraded mid-operator)
            metrics = ctx.metrics
            metrics.count("split_operators", degraded=degraded)
            metrics.count("split_rebalances", rebalances)
            metrics.count("split_chosen_ratio", chosen_ratio)
            metrics.count("split_realized_ratio", gpu_done)
            metrics.count("split_gpu_seconds", gpu_seconds)
            metrics.count("split_cpu_seconds", cpu_seconds)
            if ctx.trace is not None:
                ctx.trace.record(op.label, op.kind,
                                 "cpu+{}".format(device.name),
                                 op.plan_name, start, env.now)
            return result
        finally:
            # rollback both halves: cancellation, faults, or normal
            # completion all release the GPU share here
            lease.release()

    def _deadline_safe(self, qctx, remaining, t_cpu_full, t_gpu_full,
                       ratio) -> bool:
        """False when the deadline margin no longer covers the
        estimated remaining makespan with safety to spare — the split
        then degrades to pure CPU rather than risk GPU retries.  The
        safety multiple is ``SystemConfig.deadline_safety`` unless the
        query carries a per-SLO-class override."""
        if qctx.deadline_seconds is None:
            return True
        margin = (qctx.started_at + qctx.deadline_seconds
                  - qctx.env.now)
        estimate = remaining * max(t_cpu_full * (1.0 - ratio),
                                   t_gpu_full * ratio)
        safety = getattr(self.config, "deadline_safety", DEADLINE_SAFETY)
        if qctx.deadline_safety is not None:
            safety = qctx.deadline_safety
        return margin >= safety * estimate


__all__ = ["SplitState", "merged_split_result", "SPLIT_KINDS",
           "MIN_SHARE"]
