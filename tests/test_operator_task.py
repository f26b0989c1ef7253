"""Unit tests for the simulated operator lifecycle: staging, caching,
allocation, aborts, and the CPU fallback."""

import numpy as np
import pytest

from tests.conftest import make_context
from repro.engine.execution import QueryContext, execute_operator
from repro.engine.expressions import ColumnRef, Comparison, Literal
from repro.engine.operators import HashJoin, Materialize, ScanSelect
from repro.hardware import SystemConfig
from repro.hardware.calibration import GIB, MIB

AMOUNT = ColumnRef("sales", "amount")


def run_op(env, ctx, op, child_results, processor, admit=True):
    proc = env.process(
        execute_operator(ctx, op, child_results, processor, admit,
                         qctx=QueryContext(env, op.plan_name),
                         input_bytes=op.input_nominal_bytes(ctx.database,
                                                            child_results))
    )
    env.run()
    return proc.value


def small_config(**kwargs):
    defaults = dict(gpu_memory_bytes=64 * MIB, gpu_cache_bytes=16 * MIB)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def test_cpu_execution_takes_calibrated_time(toy_db):
    env, hw, ctx = make_context(toy_db)
    op = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    result = run_op(env, ctx, op, [], "cpu")
    input_bytes = toy_db.column("sales.amount").nominal_bytes
    expected = ctx.profile.compute_seconds(
        "selection", hw.cpu.kind, input_bytes
    )
    assert env.now == pytest.approx(expected)
    assert result.location == "cpu"
    assert hw.metrics.aborts == 0


def test_gpu_miss_transfers_and_admits(toy_db):
    env, hw, ctx = make_context(toy_db, small_config())
    op = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    result = run_op(env, ctx, op, [], "gpu")
    assert result.location == "gpu"
    assert "sales.amount" in hw.gpu_cache
    assert hw.metrics.cache_misses == 1
    assert hw.metrics.cpu_to_gpu_bytes == toy_db.column(
        "sales.amount"
    ).nominal_bytes
    result.release_device_memory()


def test_gpu_hit_avoids_transfer(toy_db):
    env, hw, ctx = make_context(toy_db, small_config())
    column = toy_db.column("sales.amount")
    hw.gpu_cache.admit("sales.amount", column.nominal_bytes)
    op = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    result = run_op(env, ctx, op, [], "gpu")
    assert hw.metrics.cpu_to_gpu_bytes == 0
    assert hw.metrics.cache_hits == 1
    result.release_device_memory()


def test_data_driven_staging_does_not_admit(toy_db):
    env, hw, ctx = make_context(toy_db, small_config())
    op = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    result = run_op(env, ctx, op, [], "gpu", admit=False)
    # transferred but not cached: the placement manager owns the cache
    assert hw.metrics.cpu_to_gpu_bytes > 0
    assert "sales.amount" not in hw.gpu_cache
    result.release_device_memory()
    assert hw.gpus[0].heap.used == 0


def test_cpu_only_operator_never_runs_on_gpu(toy_db):
    env, hw, ctx = make_context(toy_db)
    scan = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    scan_result = run_op(env, ctx, scan, [], "cpu")
    mat = Materialize(scan, [("amount", AMOUNT)])
    result = run_op(env, ctx, mat, [scan_result], "gpu")
    assert result.location == "cpu"
    assert hw.metrics.operators_per_processor["gpu"] == 0


def test_oom_abort_falls_back_to_cpu(toy_db):
    # heap too small for the 3.25x selection footprint
    config = SystemConfig(gpu_memory_bytes=5 * MIB, gpu_cache_bytes=4 * MIB)
    env, hw, ctx = make_context(toy_db, config)
    op = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    result = run_op(env, ctx, op, [], "gpu")
    assert result.location == "cpu"
    assert hw.metrics.aborts == 1
    assert hw.gpus[0].heap.used == 0  # rollback complete
    # the functional result is still correct
    expected = np.flatnonzero(toy_db.column("sales.amount").values < 30)
    assert np.array_equal(result.payload.positions("sales"), expected)


def test_abort_wasted_time_includes_staging(toy_db):
    # cache holds nothing, heap too small: the column transfer happens
    # before the failed allocation, so wasted time > 0
    config = SystemConfig(gpu_memory_bytes=4 * MIB, gpu_cache_bytes=0)
    env, hw, ctx = make_context(toy_db, config)
    op = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    run_op(env, ctx, op, [], "gpu")
    assert hw.metrics.aborts == 1
    assert hw.metrics.wasted_seconds > 0


def test_gpu_result_stays_on_heap_until_released(toy_db):
    env, hw, ctx = make_context(toy_db)
    op = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    result = run_op(env, ctx, op, [], "gpu")
    assert result.allocation is not None
    assert hw.gpus[0].heap.used == result.nominal_bytes
    result.release_device_memory()
    assert hw.gpus[0].heap.used == 0


def test_parent_on_cpu_pays_d2h_for_gpu_child(toy_db):
    env, hw, ctx = make_context(toy_db)
    scan = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    scan_result = run_op(env, ctx, scan, [], "gpu")
    mat = Materialize(scan, [("amount", AMOUNT)])
    run_op(env, ctx, mat, [scan_result], "cpu")
    assert hw.metrics.gpu_to_cpu_bytes == scan_result.nominal_bytes


def test_parent_consumption_frees_child_device_memory(toy_db):
    env, hw, ctx = make_context(toy_db)
    scan = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    scan_result = run_op(env, ctx, scan, [], "gpu")
    assert hw.gpus[0].heap.used > 0
    mat = Materialize(scan, [("amount", AMOUNT)])
    run_op(env, ctx, mat, [scan_result], "cpu")
    assert hw.gpus[0].heap.used == 0


def test_gpu_parent_of_cpu_child_pays_h2d(toy_db):
    env, hw, ctx = make_context(toy_db)
    probe = ScanSelect("sales", Comparison("<", AMOUNT, Literal(90)))
    build = ScanSelect("store")
    probe_result = run_op(env, ctx, probe, [], "cpu")
    build_result = run_op(env, ctx, build, [], "cpu")
    join = HashJoin(probe, build, ColumnRef("sales", "skey"),
                    ColumnRef("store", "id"))
    before = hw.metrics.cpu_to_gpu_bytes
    result = run_op(env, ctx, join, [probe_result, build_result], "gpu")
    moved = hw.metrics.cpu_to_gpu_bytes - before
    # the probe tid list and the key columns all crossed the bus
    assert moved >= probe_result.nominal_bytes
    result.release_device_memory()


def test_access_statistics_recorded(toy_db):
    env, hw, ctx = make_context(toy_db)
    toy_db.statistics.reset()
    op = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    run_op(env, ctx, op, [], "cpu")
    assert toy_db.statistics.access_count("sales.amount") == 1


def test_cost_model_learns_from_execution(toy_db):
    env, hw, ctx = make_context(toy_db)
    ctx.cost_model.min_observations = 1
    ctx.cost_model.refit_interval = 1
    op = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    run_op(env, ctx, op, [], "cpu")
    assert ctx.cost_model.store.count("selection", hw.cpu.kind) == 1


def test_cache_in_use_entries_survive_concurrent_eviction_pressure(toy_db):
    """A column in use by a running operator is never evicted."""
    column = toy_db.column("sales.amount")
    config = SystemConfig(
        gpu_memory_bytes=2 * GIB,
        # room for exactly one column in the cache
        gpu_cache_bytes=column.nominal_bytes + 1,
    )
    env, hw, ctx = make_context(toy_db, config)

    op1 = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    op2 = ScanSelect(
        "sales", Comparison("<", ColumnRef("sales", "price"), Literal(10))
    )
    results = []

    def run_both():
        first = env.process(execute_operator(
            ctx, op1, [], "gpu", qctx=QueryContext(env, "q1"),
            input_bytes=op1.input_nominal_bytes(ctx.database, [])))
        second = env.process(execute_operator(
            ctx, op2, [], "gpu", qctx=QueryContext(env, "q2"),
            input_bytes=op2.input_nominal_bytes(ctx.database, [])))
        results.append((yield first))
        results.append((yield second))

    env.process(run_both())
    env.run()
    # both completed on some processor with correct results
    assert len(results) == 2
    for result in results:
        result.release_device_memory()
    assert hw.gpus[0].heap.used == 0
