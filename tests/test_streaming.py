"""Operator staging overlapped with the kernel (Sec. 5.5).

"Overlap data transfer and computation on the co-processor": on the
async link (``SystemConfig.copy_engine``) an operator's staging copies
run in the background and are joined after its kernel; on the
serialized link they are awaited in line before it.  The workload-level
sweep is the ``overlap`` figure; these tests hold the operator-level
properties.
"""

import dataclasses

from tests.conftest import make_context
from repro.engine.execution import QueryContext, execute_operator
from repro.engine.expressions import ColumnRef, Comparison, Literal
from repro.engine.operators import ScanSelect
from repro.hardware import SystemConfig
from repro.hardware.calibration import GIB
from repro.harness import run_workload
from repro.workloads import sql_workload


AMOUNT = ColumnRef("sales", "amount")


def cold_config(overlap, **kwargs):
    defaults = dict(gpu_memory_bytes=1 * GIB, gpu_cache_bytes=0,
                    copy_engine=overlap)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def run_scan(toy_db, overlap):
    env, hw, ctx = make_context(toy_db, cold_config(overlap))
    op = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    proc = env.process(execute_operator(
        ctx, op, [], "gpu", qctx=QueryContext(env, "q"),
        input_bytes=op.input_nominal_bytes(ctx.database, [])))
    env.run()
    proc.value.release_device_memory()
    return env.now, hw


def test_streaming_overlaps_transfer_and_compute(toy_db):
    staged_time, _ = run_scan(toy_db, overlap=False)
    overlapped_time, _ = run_scan(toy_db, overlap=True)
    assert overlapped_time < staged_time


def test_streaming_never_beats_the_slower_component(toy_db):
    overlapped_time, hw = run_scan(toy_db, overlap=True)
    column = toy_db.column("sales.amount")
    transfer = hw.bus.transfer_time(column.nominal_bytes)
    compute = hw.profile.compute_seconds(
        "selection", hw.gpu.kind, column.nominal_bytes
    )
    assert overlapped_time >= max(transfer, compute) - 1e-9


def test_streaming_charges_the_same_bus_volume(toy_db):
    _, hw_staged = run_scan(toy_db, overlap=False)
    _, hw_overlapped = run_scan(toy_db, overlap=True)
    assert (hw_overlapped.metrics.cpu_to_gpu_bytes
            == hw_staged.metrics.cpu_to_gpu_bytes)


def test_streaming_results_identical(toy_db):
    queries = sql_workload(toy_db, {
        "q": "select region, sum(amount) as s from sales, store "
             "where skey = id group by region"
    })
    rows = {}
    for overlap in (False, True):
        config = dataclasses.replace(SystemConfig(), copy_engine=overlap)
        run = run_workload(toy_db, queries, "gpu_only", config=config,
                           warm_cache=False, collect_results=True)
        rows[overlap] = run.results["q"].row_tuples()
    assert rows[False] == rows[True]


def test_streaming_workload_not_slower(toy_db):
    queries = sql_workload(toy_db, {
        "q": "select sum(amount) as s from sales where price < 30"
    })
    times = {}
    for overlap in (False, True):
        config = cold_config(overlap, gpu_memory_bytes=2 * GIB)
        run = run_workload(toy_db, queries, "gpu_only", config=config,
                           warm_cache=False, repetitions=3)
        times[overlap] = run.seconds
    assert times[True] <= times[False] + 1e-9
