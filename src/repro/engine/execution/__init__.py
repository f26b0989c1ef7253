"""Plan executors.

* :func:`execute_functional` — run a plan immediately, outside the DES
  (fused-first; used by tests and the reference comparison), and
  :func:`execute_operators` — the operator-at-a-time loop under it,
  which is also the reference the fused path is gated against.
* :class:`ExecutionContext` plus the simulated executors live in
  :mod:`repro.engine.execution.context`, :mod:`...operator_task`, and
  :mod:`...eager` (compile-time and run-time placement); the
  query-chopping executor lives in :mod:`repro.core.chopping`.
* The overload-safe query lifecycle (admission control, deadlines with
  cooperative cancellation) lives in
  :mod:`repro.engine.execution.lifecycle`.
* Intra-operator CPU/GPU co-processing (ratio-split execution) lives
  in :mod:`repro.engine.execution.split`.
* What a device attempt holds (cache pins, staging, working memory,
  in-flight copies) and its one rollback live in
  :mod:`repro.engine.execution.lease`.
"""

from repro.engine.execution.functional import (
    execute_functional,
    execute_operators,
)
from repro.engine.execution.context import ExecutionContext
from repro.engine.execution.lifecycle import (
    AdmissionController,
    LifecycleConfig,
    QueryCancelled,
    QueryContext,
    deadline_watchdog,
)
from repro.engine.execution.operator_task import execute_operator
from repro.engine.execution.eager import run_plan_eager
from repro.engine.execution.resilience import (
    BreakerState,
    CircuitBreaker,
    ResilienceManager,
    RetryPolicy,
)
from repro.engine.execution.split import SplitState

__all__ = [
    "AdmissionController",
    "BreakerState",
    "CircuitBreaker",
    "ExecutionContext",
    "LifecycleConfig",
    "QueryCancelled",
    "QueryContext",
    "ResilienceManager",
    "RetryPolicy",
    "SplitState",
    "deadline_watchdog",
    "execute_functional",
    "execute_operator",
    "execute_operators",
    "run_plan_eager",
]
