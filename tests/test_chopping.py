"""Unit tests for the query-chopping executor."""

import numpy as np
import pytest

from tests.conftest import make_context
from repro.core import ChoppingExecutor, get_strategy
from repro.core.placement import DataDrivenRuntime, RuntimeHype
from repro.engine import Planner
from repro.engine.execution import execute_functional
from repro.engine.operators import PhysicalOperator, PhysicalPlan
from repro.hardware import SystemConfig
from repro.hardware.calibration import GIB, MIB
from repro.sql import bind


JOIN_SQL = (
    "select region, sum(amount) as s from sales, store "
    "where skey = id and amount < 40 group by region order by s desc"
)


def make_plan(db, sql=JOIN_SQL, name="q"):
    return Planner(db).plan(bind(sql, db, name=name))


def test_chopping_produces_correct_results(toy_db):
    env, hw, ctx = make_context(toy_db)
    expected = execute_functional(make_plan(toy_db), toy_db)
    chopper = ChoppingExecutor(ctx, RuntimeHype())
    done = chopper.submit(make_plan(toy_db))
    env.run()
    result = done.value
    assert result.payload.row_tuples() == expected.payload.row_tuples()
    assert result.location == "cpu"  # final results live on the host


def test_chopping_runs_multiple_queries_concurrently(toy_db):
    env, hw, ctx = make_context(toy_db)
    chopper = ChoppingExecutor(ctx, RuntimeHype())
    events = [chopper.submit(make_plan(toy_db, name="q{}".format(i)))
              for i in range(5)]
    env.run()
    assert all(e.triggered and e.ok for e in events)
    # shared worker pools: total time is less than five serial runs
    # would be if no inter-query parallelism existed (smoke check)
    assert env.now > 0


def test_worker_pool_bounds_gpu_concurrency(toy_db):
    """At most gpu_workers operators may hold GPU state at once."""
    env, hw, ctx = make_context(toy_db)
    for column in toy_db.columns():
        hw.gpu_cache.admit(column.key, column.nominal_bytes, pinned=True)

    peak = {"jobs": 0}
    original = hw.gpu.submit

    def tracking_submit(seconds):
        event = original(seconds)
        peak["jobs"] = max(peak["jobs"], hw.gpu.active_jobs)
        return event

    hw.gpu.submit = tracking_submit
    chopper = ChoppingExecutor(ctx, RuntimeHype(), cpu_workers=4,
                               gpu_workers=2)
    for i in range(8):
        chopper.submit(make_plan(toy_db, name="q{}".format(i)))
    env.run()
    assert peak["jobs"] <= 2


def test_chopping_leaves_enter_stream_immediately(toy_db):
    env, hw, ctx = make_context(toy_db)
    chopper = ChoppingExecutor(ctx, RuntimeHype())
    plan = make_plan(toy_db)
    n_leaves = len(plan.leaves)
    chopper.submit(plan)
    # before any simulation step, all leaves are queued or consumed
    queued = sum(len(store) for store in chopper.ready.values())
    assert queued == n_leaves


def test_parent_scheduled_after_all_children(toy_db):
    env, hw, ctx = make_context(toy_db)
    chopper = ChoppingExecutor(ctx, RuntimeHype())
    order = []
    from repro.core import chopping as chopping_module

    original = ChoppingExecutor._dispatch

    def tracking_dispatch(self, task):
        order.append(task.op.label)
        return original(self, task)

    ChoppingExecutor._dispatch = tracking_dispatch
    try:
        plan = make_plan(toy_db)
        done = chopper.submit(plan)
        env.run()
        assert done.ok
    finally:
        ChoppingExecutor._dispatch = original
    labels = order
    join_index = next(i for i, l in enumerate(labels) if l.startswith("Join"))
    scan_indices = [i for i, l in enumerate(labels) if l.startswith("Scan")]
    assert all(i < join_index for i in scan_indices)


def test_load_tracker_updated(toy_db):
    env, hw, ctx = make_context(toy_db)
    chopper = ChoppingExecutor(ctx, RuntimeHype())
    done = chopper.submit(make_plan(toy_db))
    env.run()
    assert done.ok
    # all assigned work finished: outstanding load is zero
    assert ctx.load.estimated_completion("cpu") == pytest.approx(0.0)
    assert ctx.load.estimated_completion("gpu") == pytest.approx(0.0)


def test_data_driven_chopping_keeps_uncached_work_on_cpu(toy_db):
    env, hw, ctx = make_context(toy_db)  # cold cache
    chopper = ChoppingExecutor(ctx, DataDrivenRuntime())
    done = chopper.submit(make_plan(toy_db))
    env.run()
    assert done.ok
    assert hw.metrics.cpu_to_gpu_bytes == 0  # never touched the bus


def test_gpu_heap_clean_after_workload(toy_db):
    env, hw, ctx = make_context(toy_db)
    for column in toy_db.columns():
        hw.gpu_cache.admit(column.key, column.nominal_bytes, pinned=True)
    chopper = ChoppingExecutor(ctx, RuntimeHype())
    events = [chopper.submit(make_plan(toy_db, name="q{}".format(i)))
              for i in range(4)]
    env.run()
    assert all(e.ok for e in events)
    assert hw.gpu_heap.used == 0


def test_chopping_with_aborts_still_correct(toy_db):
    """Operators that abort on the tiny device still produce correct
    results through the CPU fallback."""
    config = SystemConfig(gpu_memory_bytes=6 * MIB, gpu_cache_bytes=5 * MIB)
    env, hw, ctx = make_context(toy_db, config)
    for column in toy_db.columns():
        hw.gpu_cache.admit(column.key, column.nominal_bytes, pinned=True)
    expected = execute_functional(make_plan(toy_db), toy_db)
    chopper = ChoppingExecutor(ctx, RuntimeHype())
    done = chopper.submit(make_plan(toy_db))
    env.run()
    assert done.value.payload.row_tuples() == expected.payload.row_tuples()


def test_invalid_worker_counts_rejected(toy_db):
    env, hw, ctx = make_context(toy_db)
    with pytest.raises(ValueError):
        ChoppingExecutor(ctx, RuntimeHype(), cpu_workers=0)
    with pytest.raises(ValueError):
        ChoppingExecutor(ctx, RuntimeHype(), gpu_workers=0)


def test_ablation_gpu_worker_pool_width():
    """The thread-pool width trades GPU utilisation against abort
    probability (DESIGN.md): one worker under-uses the device, too many
    re-introduce heap contention.  (``pytest -s`` prints the table
    EXPERIMENTS.md quotes.)"""
    from repro.harness import experiments as E
    from repro.harness.runner import run_workload
    from repro.harness.tables import ExperimentResult
    from repro.workloads import micro

    database = E.ssb_database(10)
    queries = micro.parallel_selection_workload(database)
    result = ExperimentResult("Ablation: chopping GPU worker pool width")
    for gpu_workers in (1, 2, 4, 8, 16):
        run = run_workload(database, queries, "chopping",
                           config=E.MICRO_CONFIG, users=20, repetitions=100,
                           gpu_workers=gpu_workers)
        result.add(gpu_workers=gpu_workers, seconds=run.seconds,
                   aborts=run.metrics.aborts,
                   wasted_seconds=run.metrics.wasted_seconds)
    print()
    result.print()
    aborts = {row["gpu_workers"]: row["aborts"] for row in result.rows}
    assert aborts[2] == 0   # a small pool avoids aborts entirely
    assert aborts[16] > 0   # a very wide one re-introduces contention
