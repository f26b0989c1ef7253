"""Unit/integration tests for the workload runner."""

import pytest

from repro.core import STRATEGY_NAMES
from repro.engine import Planner, execute_reference
from repro.engine.execution import execute_functional
from repro.harness import run_workload
from repro.harness.runner import workload_footprint_bytes
from repro.hardware import SystemConfig
from repro.hardware.calibration import GIB
from repro.sql import bind
from repro.workloads import ssb
from repro.workloads.base import WorkloadQuery, sql_workload


QUERIES = {
    "small": (
        "select region, sum(amount) as s from sales, store "
        "where skey = id and amount < 40 group by region order by s desc"
    ),
    "scalar": "select sum(price) as p from sales where amount between 5 and 60",
}


def make_workload(toy_db):
    return sql_workload(toy_db, QUERIES)


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_every_strategy_produces_correct_results(toy_db, strategy):
    queries = make_workload(toy_db)
    expected = {
        q.name: execute_functional(q.template_plan(), toy_db).payload.row_tuples()
        for q in queries
    }
    run = run_workload(toy_db, queries, strategy, users=2, repetitions=2,
                       collect_results=True)
    for name, rows in expected.items():
        assert run.results[name].row_tuples() == rows, (strategy, name)


def test_results_match_reference_evaluator(toy_db):
    queries = make_workload(toy_db)
    run = run_workload(toy_db, queries, "data_driven_chopping",
                       collect_results=True)
    for query in queries:
        reference = execute_reference(query.spec, toy_db)
        got = sorted(run.results[query.name].row_tuples())
        assert got == sorted(reference)


def test_workload_seconds_is_makespan(toy_db):
    run = run_workload(toy_db, make_workload(toy_db), "cpu_only",
                       repetitions=3)
    assert run.seconds > 0
    assert run.seconds == run.metrics.workload_seconds
    latest = max(q.end for q in run.metrics.queries)
    assert run.seconds == pytest.approx(latest)


def test_query_records_cover_all_executions(toy_db):
    run = run_workload(toy_db, make_workload(toy_db), "cpu_only",
                       users=3, repetitions=5)
    assert len(run.metrics.queries) == 2 * 5
    assert {q.user for q in run.metrics.queries} <= {0, 1, 2}


def test_total_work_fixed_across_users(toy_db):
    """The paper's setup: the workload is fixed; users only change the
    concurrency.  On the CPU-only baseline the makespan is (nearly)
    unchanged."""
    times = {}
    for users in (1, 2, 5):
        run = run_workload(toy_db, make_workload(toy_db), "cpu_only",
                           users=users, repetitions=10)
        times[users] = run.seconds
    base = times[1]
    for users, seconds in times.items():
        assert seconds == pytest.approx(base, rel=0.05), times


def test_admission_control_serialises_queries(toy_db):
    run = run_workload(toy_db, make_workload(toy_db), "admission_control",
                       users=4, repetitions=4)
    # with a single admission slot, query completions are strictly
    # sequential: no two queries end at overlapping execution windows,
    # so the makespan is at least the number of queries times the
    # fastest query
    ends = sorted(q.end for q in run.metrics.queries)
    assert all(b > a for a, b in zip(ends, ends[1:]))
    # queueing counts toward latency (the paper's admission-control
    # cost): under 4 users the mean latency exceeds the single-user one
    solo = run_workload(toy_db, make_workload(toy_db), "admission_control",
                        users=1, repetitions=4)
    assert run.metrics.mean_latency() > solo.metrics.mean_latency()


def test_warm_cache_toggle(toy_db):
    cold = run_workload(toy_db, make_workload(toy_db), "gpu_only",
                        warm_cache=False)
    warm = run_workload(toy_db, make_workload(toy_db), "gpu_only",
                        warm_cache=True)
    assert warm.metrics.cpu_to_gpu_bytes <= cold.metrics.cpu_to_gpu_bytes
    assert warm.seconds <= cold.seconds


def test_data_driven_cold_start_runs_on_cpu(toy_db):
    run = run_workload(toy_db, make_workload(toy_db), "data_driven",
                       warm_cache=False)
    assert run.metrics.operators_per_processor.get("gpu", 0) == 0 or (
        run.metrics.cpu_to_gpu_bytes == 0
    )


def test_placement_policy_forwarded(toy_db):
    run = run_workload(toy_db, make_workload(toy_db), "data_driven",
                       placement_policy="lru")
    assert run.seconds > 0


def test_invalid_arguments_rejected(toy_db):
    with pytest.raises(ValueError):
        run_workload(toy_db, make_workload(toy_db), "cpu_only", users=0)
    with pytest.raises(ValueError):
        run_workload(toy_db, make_workload(toy_db), "cpu_only", repetitions=0)
    with pytest.raises(KeyError):
        run_workload(toy_db, make_workload(toy_db), "not_a_strategy")


@pytest.mark.parametrize("bad", [
    dict(lifecycle="deadline=0"), dict(users=0), dict(gpu_workers=0),
    dict(repetitions=0),
])
def test_arguments_are_checked_before_a_platform_is_built(
        toy_db, monkeypatch, bad):
    """A typo must not cost the warm-up (every template's functional
    run and, with ``config.split``, the identity gate) first."""
    from repro.harness import runner

    monkeypatch.setattr(
        runner, "build_platform",
        lambda *args, **kwargs: pytest.fail("built a platform first"))
    with pytest.raises(ValueError):
        run_workload(toy_db, make_workload(toy_db), "chopping", **bad)


def test_workload_footprint(toy_db):
    queries = make_workload(toy_db)
    footprint = workload_footprint_bytes(queries, toy_db)
    keys = set()
    for q in queries:
        keys |= q.required_columns()
    assert footprint == sum(toy_db.column(k).nominal_bytes for k in keys)


def test_workload_query_validation(toy_db):
    with pytest.raises(ValueError):
        WorkloadQuery("bad", toy_db)  # neither sql nor plan builder
    with pytest.raises(ValueError):
        WorkloadQuery("bad", toy_db, sql="select 1",
                      plan_builder=lambda db: None)


def test_more_users_than_queries(toy_db):
    run = run_workload(toy_db, make_workload(toy_db), "cpu_only", users=50,
                       repetitions=1)
    assert len(run.metrics.queries) == 2
