"""Eager plan execution (compile-time and run-time placement).

Every operator becomes its own DES process immediately — CoGaDB's
unbounded inter-operator parallelism.  The placement strategy is
consulted when an operator's children have finished:

* compile-time strategies return the placement fixed before execution,
* run-time strategies decide now, seeing actual input sizes and
  locations (Sec. 4).

The root result is transferred back to the host if it finished on the
GPU, and its device memory is released.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.engine.execution.context import ExecutionContext, place_operator
from repro.engine.execution.lease import deliver_to_host
from repro.engine.execution.lifecycle import QueryContext
from repro.engine.execution.operator_task import execute_operator
from repro.engine.operators import PhysicalPlan
from repro.sim import Process


def run_plan_eager(ctx: ExecutionContext, plan: PhysicalPlan,
                   strategy, qctx=None) -> Process:
    """Start ``plan``; returns a process yielding the root result.

    Every operator process registers with ``qctx`` (the query's
    :class:`~repro.engine.execution.lifecycle.QueryContext`, a blank one
    when omitted) for cooperative cancellation: a cancel interrupts them
    all at the current simulated time and the abort protocol rolls back
    their device state.
    """
    env = ctx.env
    if qctx is None:
        qctx = QueryContext(env, plan.name)
    processes: Dict[int, Process] = {}

    def operator_process(op, child_processes) -> Generator:
        child_results = []
        for child_process in child_processes:
            child_result = yield child_process
            child_results.append(child_result)
        qctx.check()
        processor_name, estimate = place_operator(
            ctx, strategy, op, child_results, qctx)
        try:
            result = yield from execute_operator(
                ctx, op, child_results, processor_name,
                admit_to_cache=strategy.admit_to_cache, qctx=qctx,
            )
        finally:
            ctx.load.finish(processor_name, estimate)
        return result

    for op in plan.operators:  # post order: children already created
        children = [processes[c.op_id] for c in op.children]
        process = env.process(operator_process(op, children))
        process.defused = True
        qctx.register(process)
        processes[op.op_id] = process

    def root_process() -> Generator:
        result = yield processes[plan.root.op_id]
        yield from deliver_to_host(ctx, result)
        return result

    root = env.process(root_process())
    qctx.register(root)
    return root
