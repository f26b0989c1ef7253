"""Placement strategy interface."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

# estimate_runtime / processor_kind live beside the context so the
# executors can use them too (core.placement imports engine.execution,
# never the reverse); re-exported here for placement code
from repro.engine.execution.context import (  # noqa: F401
    ExecutionContext,
    estimate_runtime,
    processor_kind,
)
from repro.engine.intermediates import OperatorResult
from repro.engine.operators import PhysicalOperator, PhysicalPlan
from repro.hardware.processor import ProcessorKind

PROCESSOR_KINDS = {"cpu": ProcessorKind.CPU, "gpu": ProcessorKind.GPU}


class PlacementStrategy:
    """How operators are assigned to processors.

    Compile-time strategies implement :meth:`prepare_plan` and leave
    :meth:`choose_processor` reading the fixed assignment; run-time
    strategies decide in :meth:`choose_processor`, seeing actual input
    sizes and result locations.
    """

    #: "eager" (unbounded inter-operator parallelism) or "chopping"
    executor = "eager"
    #: whether GPU staging inserts missed columns into the cache
    #: (operator-driven data placement); data-driven strategies disable
    #: this — the placement manager alone controls cache content
    admit_to_cache = True
    #: whether the harness should run the data-placement manager and
    #: pin the hot set before the workload
    uses_data_placement = False
    #: maximum queries admitted concurrently (None = unbounded)
    admission_limit: Optional[int] = None

    def __init__(self, name: Optional[str] = None, executor: Optional[str] = None):
        if name is not None:
            self.name = name
        elif not hasattr(type(self), "name"):
            self.name = type(self).__name__.lower()
        if executor is not None:
            self.executor = executor

    def prepare_plan(self, ctx: ExecutionContext, plan: PhysicalPlan) -> None:
        """Fix compile-time placements (no-op for run-time strategies)."""

    def choose_processor(self, ctx: ExecutionContext, op: PhysicalOperator,
                         child_results: List[OperatorResult]) -> str:
        """Processor for ``op``, consulted when its inputs are ready."""
        if op.cpu_only:
            return "cpu"
        return op.placement or "cpu"

    def ratio_hint(self, ctx: ExecutionContext, op: PhysicalOperator,
                   device) -> Optional[float]:
        """Strategy-specific GPU work-fraction hint for split execution
        (:mod:`repro.engine.execution.split`), blended into the split
        cost model's ratio.  None means no opinion — the default for
        strategies with no data-placement knowledge."""
        return None

    def __repr__(self) -> str:
        return "<strategy {}>".format(getattr(self, "name", "?"))


def pending_transfer_seconds(
    ctx: ExecutionContext, op: PhysicalOperator, cache,
    moved_children: Iterable[Tuple[float, float]],
    contended: bool = True,
) -> float:
    """PCIe seconds to bring ``op``'s inputs to one processor: the base
    columns missing from ``cache`` (None = the host, which holds every
    column) plus ``moved_children`` — ``(nominal bytes, bus crossings)``
    per child intermediate living elsewhere.

    ``contended`` scales the sum by the link's current queue length:
    under contention every copy waits behind the transfers already in
    flight, so chasing the faster processor across a congested bus is a
    losing move.  Compile-time costing passes False.

    The sum is over floats, so its order matters to the last ulp and
    the result is compared with ``<``: base columns are visited in
    sorted key order, never in a set's hash order.
    """
    link = ctx.hardware.bus
    transfer = 0.0
    if cache is not None:
        for key in op.column_keys():
            if key not in cache:
                column = ctx.database.column(key)
                transfer += link.transfer_time(column.nominal_bytes)
    for nbytes, crossings in moved_children:
        transfer += crossings * link.transfer_time(nbytes)
    if contended:
        transfer *= 1 + link.queue_length
    return transfer
