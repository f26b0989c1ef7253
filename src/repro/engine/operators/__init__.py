"""Physical operators.

An operator is declared once, on its class; nothing else in the program
tests an operator's type.  Every class declares

* ``kind`` — the cost-model key (selection, join, groupby, ...): both
  engine profiles need a CPU curve for it, and a GPU one unless
* ``cpu_only`` — the operator must run on the host,
* ``role`` — its plan shape, one of :data:`ROLES`: what the fused
  pipelines read to decide what chains, what breaks and what trails
  the breaker,
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
* its *chunk kernel* — the one place it computes, over any row range:
  ``select`` (scan, refine), ``match`` (join), and for a breaker
  ``partial`` / ``merge`` / ``finish`` — and
* ``run()`` — that kernel called once, over the whole column, sized by
  the ``output_size`` rule the morsel schedule (``engine/morsel.py``)
  applies to its summed chunk counts.  Tail operators have ``run()``
  alone.

docs/extending.md ("Adding a physical operator") is the checklist;
``tests/test_operators.py::TestOperatorDeclarations`` checks it.
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
