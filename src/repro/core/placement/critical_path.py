"""The *Critical Path* compile-time optimizer (Appendix D).

CoGaDB's default heuristic: a cost-based iterative refinement that only
considers plans where each leaf-to-root path runs entirely on one
processor (binary operators continue on the co-processor only if both
children ran there).  Starting from a pure CPU plan, leaves are
promoted to the GPU greedily; the globally cheapest assignment seen
wins — quadratic in the number of leaves.

Cardinalities are estimated by propagating sampled selectivities
through the plan, so transfer volumes for intermediate results are
realistic (the run-time strategies instead see exact sizes).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple

from repro.core.placement.base import (
    PROCESSOR_KINDS,
    PlacementStrategy,
    pending_transfer_seconds,
)
from repro.engine.cardinality import estimate_selectivity
from repro.engine.operators import (
    GroupByAggregate,
    HashJoin,
    Materialize,
    PhysicalPlan,
    RefineSelect,
    ScanSelect,
    TidIntersect,
)
from repro.engine.operators.base import TID_BYTES


class _OpEstimate(NamedTuple):
    """Compile-time size estimates for one operator."""

    input_bytes: float
    out_rows: float
    out_bytes: float


class CriticalPath(PlacementStrategy):
    """Iterative-refinement response-time optimizer."""

    name = "critical_path"
    #: iteration budget for plans with many leaves
    max_iterations = 20

    def prepare_plan(self, ctx, plan: PhysicalPlan) -> None:
        estimates = self._estimate_sizes(ctx, plan)
        leaves = plan.leaves
        current: FrozenSet[int] = frozenset()
        best_set = current
        best_cost = self._plan_cost(ctx, plan, current, estimates)
        # Plateau-tolerant greedy: promoting a single leaf often shows
        # no gain until its sibling follows (binary operators need both
        # children on the co-processor), so we always promote the
        # cheapest leaf and keep the globally best assignment seen.
        for _ in range(min(len(leaves), self.max_iterations)):
            best_candidate = None
            best_candidate_cost = float("inf")
            for leaf in leaves:
                if leaf.op_id in current:
                    continue
                candidate = current | {leaf.op_id}
                cost = self._plan_cost(ctx, plan, candidate, estimates)
                if cost < best_candidate_cost:
                    best_candidate = frozenset(candidate)
                    best_candidate_cost = cost
            if best_candidate is None:
                break
            current = best_candidate
            if best_candidate_cost < best_cost:
                best_cost = best_candidate_cost
                best_set = best_candidate
        placement = self._assignments(plan, best_set)
        for op in plan.operators:
            op.placement = placement[op.op_id]

    # -- size estimation ------------------------------------------------

    def _estimate_sizes(self, ctx, plan: PhysicalPlan) -> Dict[int, _OpEstimate]:
        """Propagate sampled selectivities through the plan once."""
        database = ctx.database
        estimates: Dict[int, _OpEstimate] = {}
        for op in plan.operators:  # post order
            children = [estimates[c.op_id] for c in op.children]
            if isinstance(op, ScanSelect):
                table = database.table(op.table)
                selectivity = estimate_selectivity(
                    database, op.table, op.predicate
                )
                out_rows = selectivity * table.nominal_rows
                out_bytes = (
                    out_rows * TID_BYTES if op.predicate is not None else 0.0
                )
                estimates[op.op_id] = _OpEstimate(
                    op.estimate_input_nominal_bytes(database),
                    out_rows, out_bytes,
                )
            elif isinstance(op, RefineSelect):
                (child,) = children
                selectivity = estimate_selectivity(
                    database, op.table, op.predicate
                )
                width = TID_BYTES + sum(
                    database.column(k).ctype.itemsize
                    for k in op.required_columns()
                )
                estimates[op.op_id] = _OpEstimate(
                    child.out_rows * width,
                    child.out_rows * selectivity,
                    child.out_rows * selectivity * TID_BYTES,
                )
            elif isinstance(op, TidIntersect):
                smaller = min(c.out_rows for c in children)
                estimates[op.op_id] = _OpEstimate(
                    sum(c.out_bytes for c in children),
                    smaller * 0.5,
                    smaller * 0.5 * TID_BYTES,
                )
            elif isinstance(op, HashJoin):
                probe, build = children
                build_rows = database.table(op.build_key.table).nominal_rows
                build_selectivity = (
                    min(build.out_rows / build_rows, 1.0) if build_rows else 1.0
                )
                key_width = database.column(op.probe_key.key).ctype.itemsize
                out_rows = probe.out_rows * build_selectivity
                estimates[op.op_id] = _OpEstimate(
                    (probe.out_rows + build.out_rows)
                    * (TID_BYTES + key_width),
                    out_rows,
                    out_rows * 2 * TID_BYTES,
                )
            elif isinstance(op, GroupByAggregate):
                (child,) = children
                width = TID_BYTES * (
                    len(op.group_refs) + max(len(op.aggregates), 1)
                )
                out_rows = min(child.out_rows, 10_000.0)
                estimates[op.op_id] = _OpEstimate(
                    child.out_rows * width, out_rows, out_rows * 2 * width
                )
            elif isinstance(op, Materialize):
                (child,) = children
                width = sum(
                    database.column(k).ctype.itemsize
                    for k in op.required_columns()
                ) or TID_BYTES
                estimates[op.op_id] = _OpEstimate(
                    child.out_rows * width,
                    child.out_rows,
                    child.out_rows * width,
                )
            else:  # Sort, Limit and friends: volume-preserving
                (child,) = children
                estimates[op.op_id] = _OpEstimate(
                    child.out_bytes, child.out_rows, child.out_bytes
                )
        return estimates

    # -- placement derivation ---------------------------------------------

    @staticmethod
    def _assignments(plan: PhysicalPlan,
                     gpu_leaves: FrozenSet[int]) -> Dict[int, str]:
        """Derive per-operator placement from the GPU leaf set.

        Paths continue on the GPU until an operator whose children are
        not all on the GPU (or a host-only operator) is reached.
        """
        placement: Dict[int, str] = {}
        for op in plan.operators:  # post order
            if op.cpu_only:
                placement[op.op_id] = "cpu"
            elif not op.children:
                placement[op.op_id] = (
                    "gpu" if op.op_id in gpu_leaves else "cpu"
                )
            else:
                all_gpu = all(
                    placement[c.op_id] == "gpu" for c in op.children
                )
                placement[op.op_id] = "gpu" if all_gpu else "cpu"
        return placement

    def _plan_cost(self, ctx, plan: PhysicalPlan,
                   gpu_leaves: FrozenSet[int],
                   estimates: Dict[int, _OpEstimate]) -> float:
        """Estimated response time of the plan under an assignment."""
        placement = self._assignments(plan, gpu_leaves)
        finish: Dict[int, float] = {}
        for op in plan.operators:  # post order
            ready = max((finish[c.op_id] for c in op.children), default=0.0)
            estimate = estimates[op.op_id]
            processor = placement[op.op_id]
            execution = ctx.cost_model.estimate(
                op.kind, PROCESSOR_KINDS[processor], estimate.input_bytes
            )
            # compile time: no queue to read, so the estimate is
            # uncontended
            transfer = pending_transfer_seconds(
                ctx, op, ctx.gpu_cache if processor == "gpu" else None,
                [(estimates[child.op_id].out_bytes, 1.0)
                 for child in op.children
                 if placement[child.op_id] != processor],
                contended=False,
            )
            finish[op.op_id] = ready + transfer + execution
        return finish[plan.root.op_id]
