"""Experiment harness: workload runner and per-figure drivers."""

from repro.harness.parallel import (
    Cell,
    CellOutcome,
    execute_cell,
    resolve_jobs,
    run_cells,
)
from repro.harness.runner import (
    ValidationError,
    WorkloadResult,
    run_workload,
    validate_results,
)
from repro.harness.service import (
    BEST_EFFORT,
    DEFAULT_CLASSES,
    PREMIUM,
    STANDARD,
    ServiceConfig,
    ServiceResult,
    SLOClass,
    run_service,
)
from repro.harness.tables import ExperimentResult

__all__ = [
    "BEST_EFFORT",
    "Cell",
    "CellOutcome",
    "DEFAULT_CLASSES",
    "ExperimentResult",
    "PREMIUM",
    "STANDARD",
    "SLOClass",
    "ServiceConfig",
    "ServiceResult",
    "ValidationError",
    "WorkloadResult",
    "execute_cell",
    "resolve_jobs",
    "run_cells",
    "run_service",
    "run_workload",
    "validate_results",
]
