"""Unit tests for the eager executor (compile-time and run-time
placement without a worker pool) and plan explain output."""

import pytest

from tests.conftest import make_context
from repro.core.placement import CpuOnly, GpuPreferred, RuntimeHype
from repro.engine import Planner
from repro.engine.execution import execute_functional, run_plan_eager
from repro.hardware import SystemConfig
from repro.hardware.calibration import MIB
from repro.sql import bind


JOIN_SQL = (
    "select region, sum(amount) as s from sales, store "
    "where skey = id and amount < 40 group by region order by s desc"
)


def make_plan(db, sql=JOIN_SQL):
    return Planner(db).plan(bind(sql, db, name="q"))


def run(env, ctx, plan, strategy):
    strategy.prepare_plan(ctx, plan)
    process = run_plan_eager(ctx, plan, strategy)
    env.run()
    return process.value


def test_eager_cpu_only_results(toy_db):
    env, hw, ctx = make_context(toy_db)
    expected = execute_functional(make_plan(toy_db), toy_db)
    result = run(env, ctx, make_plan(toy_db), CpuOnly())
    assert result.payload.row_tuples() == expected.payload.row_tuples()
    assert result.location == "cpu"


def test_eager_gpu_result_returned_to_host(toy_db):
    env, hw, ctx = make_context(toy_db)
    for column in toy_db.columns():
        hw.gpu_cache.admit(column.key, column.nominal_bytes, pinned=True)
    result = run(env, ctx, make_plan(toy_db), GpuPreferred())
    # the root result always ends on the host, device memory released
    assert result.location == "cpu"
    assert hw.gpus[0].heap.used == 0


def test_eager_children_run_in_parallel(toy_db):
    """Inter-operator parallelism: both scans overlap in time."""
    env, hw, ctx = make_context(toy_db)
    plan = make_plan(toy_db)
    run(env, ctx, plan, CpuOnly())
    makespan_parallel = env.now

    # serial lower bound: sum of all operator times exceeds the
    # makespan only if something overlapped; with fair sharing the
    # total CPU busy time equals the sum of execution times
    busy = hw.metrics.busy_seconds["cpu"]
    assert makespan_parallel <= busy + 1e-9 or busy == pytest.approx(
        makespan_parallel
    )


def test_eager_runtime_strategy_decides_per_operator(toy_db):
    env, hw, ctx = make_context(toy_db)
    for column in toy_db.columns():
        hw.gpu_cache.admit(column.key, column.nominal_bytes, pinned=True)
    plan = make_plan(toy_db)
    result = run(env, ctx, plan, RuntimeHype())
    # run-time strategies leave compile-time placement untouched
    assert all(op.placement is None for op in plan.operators)
    assert result.location == "cpu"
    assert hw.metrics.operators_per_processor["gpu"] > 0


def test_eager_load_tracking_settles_to_zero(toy_db):
    env, hw, ctx = make_context(toy_db)
    run(env, ctx, make_plan(toy_db), RuntimeHype())
    assert ctx.load.estimated_completion("cpu") == pytest.approx(0.0)
    assert ctx.load.estimated_completion("gpu") == pytest.approx(0.0)


def test_eager_gpu_preferred_on_starved_device_falls_back(toy_db):
    config = SystemConfig(gpu_memory_bytes=4 * MIB, gpu_cache_bytes=2 * MIB)
    env, hw, ctx = make_context(toy_db, config)
    expected = execute_functional(make_plan(toy_db), toy_db)
    result = run(env, ctx, make_plan(toy_db), GpuPreferred())
    assert result.payload.row_tuples() == expected.payload.row_tuples()
    assert hw.metrics.aborts > 0
    assert hw.gpus[0].heap.used == 0


def test_explain_shows_kinds_and_placements(toy_db):
    plan = make_plan(toy_db)
    text = plan.explain()
    assert "[sort on ?]" in text
    assert "Join" in text
    plan.assign_all("cpu")
    text = plan.explain()
    assert "on cpu" in text
    execute_functional(plan, toy_db)
    text = plan.explain()
    assert "rows=" in text and "nominal=" in text
