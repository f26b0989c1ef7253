"""HyPE's algorithm selection.

Beyond placing operators on processors, HyPE "selects for each operator
a suitable algorithm" (Sec. 5.2).  Operator kinds with several physical
algorithms (hash vs. nested-loop join, radix vs. insertion sort, hash
vs. sort aggregation) carry per-algorithm cost curves in the
calibration profile; the chooser picks the candidate with the lowest
*learned* estimate for the actual input size, so small inputs get the
low-startup variant and bulk inputs the high-throughput one.
"""

from __future__ import annotations

from typing import Tuple

from repro.hardware.calibration import EngineProfile
from repro.hardware.processor import ProcessorKind
from repro.hype.models import LearnedCostModel


def choose_algorithm(
    cost_model: LearnedCostModel,
    profile: EngineProfile,
    op_kind: str,
    processor_kind: ProcessorKind,
    input_bytes: float,
) -> Tuple[str, float]:
    """Pick the cheapest algorithm for an operator execution.

    Returns ``(cost key, estimated seconds)``; the key is
    ``kind#algorithm`` for kinds with variants and the plain kind
    otherwise, and addresses both the analytical curve and the learned
    observation history.
    """
    keys = profile.algorithm_keys(op_kind)
    if not keys:
        return op_kind, cost_model.estimate(
            op_kind, processor_kind, input_bytes
        )
    best_key = op_kind
    best_estimate = float("inf")
    for key in keys:
        estimate = cost_model.estimate(key, processor_kind, input_bytes)
        if estimate < best_estimate:
            best_key = key
            best_estimate = estimate
    return best_key, best_estimate
