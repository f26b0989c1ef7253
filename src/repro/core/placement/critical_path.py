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

from typing import FrozenSet, List, NamedTuple, Tuple

from repro.core.placement.base import PlacementStrategy
from repro.engine import caches
from repro.engine.operators import OpEstimate, PhysicalPlan
from repro.hardware.processor import ProcessorKind


class _Template(NamedTuple):
    """What every arrival of a template shares, by post-order index."""

    sizes: Tuple[OpEstimate, ...]
    #: per operator, the indexes of its children
    children: Tuple[Tuple[int, ...], ...]
    leaves: Tuple[int, ...]
    #: per operator, its ``cpu_only`` flag
    host_only: Tuple[bool, ...]


class CriticalPath(PlacementStrategy):
    """Iterative-refinement response-time optimizer."""

    name = "critical_path"
    #: iteration budget for plans with many leaves
    max_iterations = 20

    def prepare_plan(self, ctx, plan: PhysicalPlan) -> float:
        """Fix every operator's placement; returns the estimated
        response time of the assignment chosen."""
        operators = plan.operators  # post order: children first
        sizes, children, leaves, host_only = self._template(ctx, plan)
        # Everything a candidate's cost is made of, once per call and
        # by post-order index: nothing below changes while this runs.
        estimate = ctx.cost_model.estimate
        transfer_time = ctx.hardware.bus.transfer_time
        column = ctx.database.column
        gpu_cache = ctx.hardware.gpu_cache
        cpu_seconds: List[float] = []
        gpu_seconds: List[float] = []
        #: PCIe seconds for the base columns missing from the GPU cache
        gpu_staging: List[float] = []
        #: PCIe seconds to ship the operator's output across the bus
        shipping: List[float] = []
        for op, size in zip(operators, sizes):
            cpu_seconds.append(
                estimate(op.kind, ProcessorKind.CPU, size.input_bytes))
            staging = 0.0
            if op.cpu_only:
                gpu_seconds.append(0.0)  # never read
            else:
                gpu_seconds.append(
                    estimate(op.kind, ProcessorKind.GPU, size.input_bytes))
                for key in op.column_keys():  # sorted: a float sum
                    if key not in gpu_cache:
                        staging += transfer_time(column(key).nominal_bytes)
            gpu_staging.append(staging)
            shipping.append(transfer_time(size.out_bytes))
        on_gpu = [False] * len(operators)
        finish = [0.0] * len(operators)

        def cost(gpu_leaves: FrozenSet[int]) -> float:
            """Estimated response time with these leaves promoted;
            leaves ``on_gpu`` holding the assignment it implies.

            Paths continue on the GPU until an operator whose children
            are not all on the GPU (or a host-only operator) is reached.
            Compile time: no queue to read, so transfers are uncontended.
            """
            for i, inputs in enumerate(children):
                if host_only[i]:
                    gpu = False
                elif inputs:
                    gpu = True
                    for child in inputs:
                        if not on_gpu[child]:
                            gpu = False
                            break
                else:
                    gpu = i in gpu_leaves
                on_gpu[i] = gpu
                ready = 0.0
                transfer = gpu_staging[i] if gpu else 0.0
                for child in inputs:
                    if finish[child] > ready:
                        ready = finish[child]
                    if on_gpu[child] != gpu:
                        transfer += shipping[child]
                finish[i] = ready + transfer + (
                    gpu_seconds[i] if gpu else cpu_seconds[i])
            return finish[-1]

        current: FrozenSet[int] = frozenset()
        best_set = current
        best_cost = cost(current)
        # Plateau-tolerant greedy: promoting a single leaf often shows
        # no gain until its sibling follows (binary operators need both
        # children on the co-processor), so we always promote the
        # cheapest leaf and keep the globally best assignment seen.
        for _ in range(min(len(leaves), self.max_iterations)):
            best_candidate = None
            best_candidate_cost = float("inf")
            for leaf in leaves:
                if leaf in current:
                    continue
                candidate = current | {leaf}
                candidate_cost = cost(candidate)
                if candidate_cost < best_candidate_cost:
                    best_candidate = candidate
                    best_candidate_cost = candidate_cost
            if best_candidate is None:
                break
            current = best_candidate
            if best_candidate_cost < best_cost:
                best_cost = best_candidate_cost
                best_set = best_candidate
        cost(best_set)  # leaves the winning assignment in on_gpu
        for op, gpu in zip(operators, on_gpu):
            op.placement = "gpu" if gpu else "cpu"
        return best_cost

    # -- size estimation ------------------------------------------------

    def _template(self, ctx, plan: PhysicalPlan) -> _Template:
        """Sampled selectivities propagated through the plan (one
        estimate per operator, in post order) and the plan's shape.
        Computed once per (database, plan structure) — sizes depend on
        nothing else, the shape on the structure alone — and kept in the
        database's ``"placement_sizes"`` memo, keyed by root fingerprint,
        so whatever mutates or retires a database drops them.  A plan
        without a fingerprint is estimated afresh every time."""
        database = ctx.database
        fingerprint = plan.root.fingerprint()
        if fingerprint is not None:
            memo = caches.memo(database, "placement_sizes")
            template = memo.get(fingerprint)
            if template is None:
                template = memo[fingerprint] = self._sample(database, plan)
            return template
        return self._sample(database, plan)

    @staticmethod
    def _sample(database, plan: PhysicalPlan) -> _Template:
        position = {op.op_id: i for i, op in enumerate(plan.operators)}
        children = tuple(tuple(position[c.op_id] for c in op.children)
                         for op in plan.operators)
        sizes: List[OpEstimate] = []  # post order: children first
        for op, inputs in zip(plan.operators, children):
            sizes.append(op.estimate(database, [sizes[i] for i in inputs]))
        return _Template(
            tuple(sizes),
            children,
            tuple(position[leaf.op_id] for leaf in plan.leaves),
            tuple(op.cpu_only for op in plan.operators),
        )
