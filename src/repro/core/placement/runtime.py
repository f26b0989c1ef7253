"""Run-time operator placement via HyPE (Sec. 4).

Placement happens when an operator's inputs are available, so the
decision sees exact input cardinalities (no estimation error), actual
result locations (dynamic reaction to aborts), the current device heap
occupancy, and the load of every processor's ready queue.  With several
co-processors (Sec. 6.3) every device is a candidate.
"""

from __future__ import annotations

from repro.core.placement.base import (
    PlacementStrategy,
    pending_transfer_seconds,
    processor_kind,
)
from repro.engine.execution.split import MIN_SHARE
from repro.hype.models import SplitCostModel


class RuntimeHype(PlacementStrategy):
    """Cost-based run-time placement (used standalone and by
    *Chopping*)."""

    name = "runtime"

    def choose_processor(self, ctx, op, child_results,
                         input_bytes=None) -> str:
        if op.cpu_only:
            return "cpu"
        # re-snapshot the breaker penalties: a breaker that opened (or
        # half-opened) since the last placement must show up in the
        # load estimates this decision reads
        ctx.load.refresh()
        if input_bytes is None:
            input_bytes = op.input_nominal_bytes(ctx.database, child_results)
        footprint = op.device_footprint_bytes(
            ctx.profile, ctx.database, child_results, input_bytes)
        best_name = "cpu"
        best_cost = self._estimated_cost(ctx, op, child_results, "cpu",
                                         input_bytes, None)
        for device in ctx.hardware.gpus:
            # Run-time placement sees the *current* device state
            # (Sec. 4): an operator whose footprint cannot fit right
            # now would only abort — skip the device.  A device whose
            # circuit breaker is open (too many injected transient
            # faults) would be skipped at execution anyway.
            capacity = self._capacity(device, footprint)
            if capacity is None:
                continue
            if not ctx.resilience.available(device.name, ctx.env.now):
                continue
            cost = self._device_cost(ctx, op, child_results, device,
                                     input_bytes, capacity)
            if cost < best_cost:
                best_cost = cost
                best_name = device.name
        return best_name

    def _capacity(self, device, footprint):
        """Fraction of ``footprint`` the device can take, None to skip
        it: a pure placement needs all of it free right now."""
        return None if footprint > device.heap.available else 1.0

    def _device_cost(self, ctx, op, child_results, device, input_bytes,
                     capacity):
        return self._estimated_cost(ctx, op, child_results, device.name,
                                    input_bytes, device)

    def _estimated_cost(self, ctx, op, child_results, name, input_bytes,
                        device):
        """exec estimate + pending transfers + ready-queue load.

        A child on *another* co-processor crosses the bus twice (device
        to host, then host to this device).
        """
        execution = ctx.cost_model.estimate(
            op.kind, processor_kind(name), input_bytes
        )
        transfer = pending_transfer_seconds(
            ctx, op, device.cache if device is not None else None,
            [(child.nominal_bytes,
              2.0 if device is not None and child.location != "cpu" else 1.0)
             for child in child_results if child.location != name],
        )
        load = ctx.load.estimated_completion(name)
        return execution + transfer + load


class SplitHype(RuntimeHype):
    """Run-time placement for intra-operator split execution.

    Identical cost-based choice to :class:`RuntimeHype`, with one
    relaxation: a device whose free heap covers only *part* of the
    operator's footprint stays a candidate, because the split executor
    (:mod:`repro.engine.execution.split`) can ship exactly the
    fraction that fits and stream the rest on the CPU.  The estimated
    device cost models the split: both sides run concurrently, so the
    operator finishes when the slower side does.
    """

    name = "split"

    def _capacity(self, device, footprint):
        capacity = (device.heap.available / footprint
                    if footprint > 0 else 1.0)
        if capacity < MIN_SHARE:
            return None  # not even a split share fits right now
        return min(capacity, 1.0)

    def _device_cost(self, ctx, op, child_results, device, input_bytes,
                     capacity):
        """Estimated makespan of splitting ``op`` onto ``device``."""
        t_cpu = ctx.cost_model.estimate(
            op.kind, processor_kind("cpu"), input_bytes)
        t_gpu = ctx.cost_model.estimate(
            op.kind, processor_kind(device.name), input_bytes)
        transfer = 0.0
        if not ctx.hardware.config.coupled:
            transfer = pending_transfer_seconds(
                ctx, op, device.cache,
                [(child.nominal_bytes, 1.0) for child in child_results
                 if child.location != device.name],
            )
        ratio = min(SplitCostModel.balance(t_cpu, t_gpu, transfer),
                    capacity)
        makespan = max(ratio * (t_gpu + transfer),
                       (1.0 - ratio) * t_cpu)
        load = max(ctx.load.estimated_completion("cpu"),
                   ctx.load.estimated_completion(device.name))
        return makespan + load
