"""Every placed operator is sized once.

``place_operator`` computes an operator's ``input_nominal_bytes`` and
hands it to the strategy, the load estimate, ``execute_operator`` and
the device attempt, which derive the device footprint from it.  A spy on every class's ``input_nominal_bytes`` shows exactly
one executor-path call per placed operator — under run-time placement
on the eager executor, under chopping, and under the compile-time
``critical_path`` of the service — and that what HyPE learned from was
the size an independent recomputation gives after the run.
"""

import collections
import sys

import pytest

from repro.engine.execution import operator_task
from repro.engine.operators import PhysicalOperator
from repro.harness.runner import run_workload
from repro.harness.service import ServiceConfig, run_service
from repro.workloads import ssb


def _sizing_classes():
    seen, pending = [], [PhysicalOperator]
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return [cls for cls in seen if "input_nominal_bytes" in vars(cls)]


@pytest.fixture
def sizing(monkeypatch):
    """Spies: ``calls`` — ``(op_id, calling function)`` per sizing;
    ``recorded`` — ``(op, database, child results, input bytes)`` per
    execution HyPE learned from; ``originals`` — the unspied methods."""
    calls, recorded, originals = [], [], {}

    def spy(original):
        def input_nominal_bytes(self, database, child_results):
            calls.append((self.op_id, sys._getframe(1).f_code.co_name))
            return original(self, database, child_results)
        return input_nominal_bytes

    for cls in _sizing_classes():
        originals[cls] = vars(cls)["input_nominal_bytes"]
        monkeypatch.setattr(cls, "input_nominal_bytes",
                            spy(originals[cls]))
    record_execution = operator_task._record_execution

    def recording(ctx, op, kind, algorithm_key, input_bytes, seconds):
        child_results = sys._getframe(1).f_locals["child_results"]
        recorded.append((op, ctx.database, list(child_results),
                         input_bytes))
        return record_execution(ctx, op, kind, algorithm_key, input_bytes,
                                seconds)

    monkeypatch.setattr(operator_task, "_record_execution", recording)
    return calls, recorded, originals


def _unspied_size(originals, op, database, child_results):
    for cls in type(op).__mro__:
        if cls in originals:
            return originals[cls](op, database, child_results)
    raise AssertionError(type(op))


def _check(sizing):
    calls, recorded, originals = sizing
    callers = collections.Counter(caller for _, caller in calls)
    # compile-time estimates aside, only placement sizes an operator
    assert set(callers) <= {"place_operator", "estimate"}, callers
    placed = collections.Counter(
        op_id for op_id, caller in calls if caller == "place_operator")
    assert placed and set(placed.values()) == {1}
    # one execution HyPE learned from per placed operator, nothing else
    assert sorted(op.op_id for op, *_ in recorded) == sorted(placed)
    for op, database, child_results, input_bytes in recorded:
        assert input_bytes == _unspied_size(originals, op, database,
                                            child_results)
    return len(placed)


@pytest.mark.parametrize("strategy", ["runtime", "chopping"])
def test_a_batch_sizes_each_placed_operator_once(ssb_db, sizing, strategy):
    queries = ssb.workload(ssb_db)
    result = run_workload(ssb_db, queries, strategy, users=3)
    placed = _check(sizing)
    assert placed == sum(len(query.instantiate().operators)
                         for query in queries)
    assert result.metrics.operators_per_processor["gpu"] > 0


def test_the_service_sizes_each_placed_operator_once(ssb_db, sizing):
    service = ServiceConfig(duration_seconds=1.0, rate=60, seed=3)
    result = run_service(ssb_db, strategy="critical_path", service=service)
    assert result.completed > 0
    assert _check(sizing) >= result.completed
