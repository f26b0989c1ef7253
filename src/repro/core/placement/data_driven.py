"""Data-driven operator placement (Sec. 3).

Operators run on a co-processor if and only if every base column they
read is resident in that device's (pinned) cache and every child
operator also ran there; the first operator violating the rule switches
the chain to the CPU, and everything above stays on the CPU.  Device
cache content is owned exclusively by the
:class:`~repro.core.data_placement.DataPlacementManager`.

With several co-processors (Sec. 6.3), the placement manager partitions
the hot columns across the devices and the rule picks the device
holding the operator's inputs — the horizontal scale-out the paper
sketches.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.placement.base import PlacementStrategy
from repro.engine.execution.context import resident_fraction


def _eligible_device(ctx, op, child_locations: List[str]) -> Optional[str]:
    """The co-processor the data-driven rule allows, if any.

    All required base columns must be cached on the device and every
    (location-constrained) child must reside there too.  Children whose
    location is None are *neutral* — zero-size metadata results (bare
    scans) that follow their parent for free.
    """
    required = op.required_columns()
    constrained = [loc for loc in child_locations if loc is not None]
    if any(loc == "cpu" for loc in constrained):
        return None  # a child already fell to the CPU: the chain ended
    preferred = set(constrained)
    candidates = [
        device.name
        for device in ctx.hardware.gpus
        if all(key in device.cache for key in required)
        # a device with an open circuit breaker is off-limits even when
        # it holds the data — the chain degrades to the CPU instead
        and ctx.resilience.available(device.name, ctx.env.now)
    ]
    if not candidates:
        return None
    # Stay where the children already are if possible; otherwise hop to
    # the device holding this operator's columns — intermediates after
    # the selective joins are small, so the device switch is cheap (the
    # same argument the paper makes for switching back to the CPU).
    for name in candidates:
        if name in preferred:
            return name
    return candidates[0]


def _runtime_location(result) -> Optional[str]:
    """A child's placement constraint at run time (None = neutral)."""
    if result.nominal_bytes == 0:
        return None
    return result.location


def _compile_location(child_op) -> Optional[str]:
    """A child's placement constraint at compile time (None = neutral)."""
    if not child_op.required_columns() and not child_op.children:
        # bare scan: produces a zero-size metadata result
        return None
    return child_op.placement


class DataDrivenCompile(PlacementStrategy):
    """Compile-time data-driven placement (the *Data-Driven* line)."""

    name = "data_driven"
    admit_to_cache = False
    uses_data_placement = True

    def prepare_plan(self, ctx, plan) -> None:
        for op in plan.operators:  # post order: children assigned first
            if op.cpu_only:
                op.placement = "cpu"
                continue
            child_locations = [
                _compile_location(child) for child in op.children
            ]
            device = _eligible_device(ctx, op, child_locations)
            op.placement = device if device is not None else "cpu"

    def ratio_hint(self, ctx, op, device):
        return resident_fraction(ctx, op, device)


class DataDrivenRuntime(PlacementStrategy):
    """The data-driven rule applied at run time (used by *Data-Driven
    Chopping*): identical placement logic, but child locations are the
    *observed* ones, so the strategy reacts to aborts — once a child
    fell back to the CPU, the rest of the query stays there
    (Sec. 5.4)."""

    name = "data_driven_runtime"
    admit_to_cache = False
    uses_data_placement = True

    def choose_processor(self, ctx, op, child_results,
                         input_bytes=None) -> str:
        if op.cpu_only:
            return "cpu"
        child_locations = [
            _runtime_location(result) for result in child_results
        ]
        device = _eligible_device(ctx, op, child_locations)
        return device if device is not None else "cpu"

    def ratio_hint(self, ctx, op, device):
        return resident_fraction(ctx, op, device)
