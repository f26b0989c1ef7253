"""Immediate (non-simulated) plan execution.

Runs the functional numpy implementations with no hardware model.
This is the correctness backbone: integration tests compare its output
(and the simulated executors' output) against the naive reference
evaluator.

:func:`execute_functional` is fused-first.  ``prepare_fused``
(:mod:`repro.engine.morsel`) runs the plan's scan→join→aggregate chain
as per-morsel pipelines and *records* the byte-identical result tuple
of every covered operator into its memo; :func:`execute_operators` —
the operator-at-a-time post-order loop — then serves those memos, runs
whatever fusion did not cover (tail sorts/limits, declined plan
shapes), and performs the per-operator statistics bookkeeping.

:func:`execute_operators` on its own is the operator path: the
reference the identity gates compare fused and pooled results with,
and the engine to run when debugging one operator's output.
"""

from __future__ import annotations

from typing import Dict

from repro.engine import morsel
from repro.engine.intermediates import OperatorResult
from repro.engine.operators import PhysicalPlan
from repro.storage import Database


def execute_operators(plan: PhysicalPlan, database: Database) -> OperatorResult:
    """Execute ``plan`` operator at a time; returns the root result."""
    statistics = database.statistics
    results: Dict[int, OperatorResult] = {}
    for op in plan.operators:  # post order: children first
        child_results = [results[c.op_id] for c in op.children]
        results[op.op_id] = op.produce(database, child_results)
        # sorted keys: recency ticks (and the LFU tie-break order
        # downstream) are hash-seed independent
        statistics.record_accesses(op.column_keys())
    return results[plan.root.op_id]


def execute_functional(plan: PhysicalPlan, database: Database) -> OperatorResult:
    """Execute ``plan`` immediately; returns the root result."""
    morsel.prepare_fused(plan, database)
    return execute_operators(plan, database)
