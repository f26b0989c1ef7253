"""Physical operators.

An operator is declared once, on its class; nothing else in the program
tests an operator's type.  Every class declares

* ``kind`` — the cost-model key (selection, join, groupby, ...): both
  engine profiles need a CPU curve for it, and a GPU one unless
* ``cpu_only`` — the operator must run on the host,
* ``role`` — its plan shape, one of :data:`ROLES`: what the fused
  pipelines and the vectorized chains read to decide what chains, what
  breaks and what trails the breaker,
* ``_read_columns()`` — the base columns it reads (behind
  ``required_columns()`` / ``column_keys()``: data-driven placement,
  staging, the access statistics),
* ``state_key()`` — every parameter that shapes the output (opts in to
  the cross-plan result cache; None opts out),
* ``input_nominal_bytes()`` — paper-scale input volume for costing,
* ``estimate()`` — the same before any result exists: compile-time
  (input bytes, output rows, output bytes) from the children's,
* ``device_footprint_bytes()`` — device heap demand, where the
  profile's per-kind factor over the input volume does not fit,
* ``run()`` — the functional numpy implementation.

To add an operator: subclass :class:`PhysicalOperator` in a module of
this package; set ``kind`` (a new kind needs its cost curves and
footprint factor in both profiles of ``hardware/calibration.py``),
``cpu_only`` if host-side, and ``role`` (a new role means deciding in
``morsel._analyze_structure`` and ``vectorized.is_pipelineable`` whether
it fuses and chains).  Override ``_read_columns``, ``state_key``,
``run`` and — unless it reads one frame whole and preserves its volume,
the defaults — ``input_nominal_bytes`` and ``estimate``, with the
per-row width in one private helper both call.  Export it below, lower
to it in ``planner._lower``, add it to ``tests/test_operators.py::
_one_of_each``: ``TestOperatorDeclarations`` checks the rest.
"""

from repro.engine.operators.base import (
    OpEstimate,
    PhysicalOperator,
    PhysicalPlan,
    ROLES,
)
from repro.engine.operators.scan import RefineSelect, ScanSelect, TidIntersect
from repro.engine.operators.join import HashJoin
from repro.engine.operators.aggregate import GroupByAggregate
from repro.engine.operators.materialize import Materialize
from repro.engine.operators.frame_ops import Distinct, FrameFilter
from repro.engine.operators.sort import Limit, Sort

__all__ = [
    "Distinct",
    "FrameFilter",
    "GroupByAggregate",
    "HashJoin",
    "Limit",
    "Materialize",
    "OpEstimate",
    "PhysicalOperator",
    "PhysicalPlan",
    "ROLES",
    "RefineSelect",
    "ScanSelect",
    "Sort",
    "TidIntersect",
]
