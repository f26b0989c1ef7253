"""Tests for the streaming-transfer execution mode (Sec. 5.5)."""

import dataclasses

import pytest

from tests.conftest import make_context
from repro.engine.execution import QueryContext, execute_operator
from repro.engine.expressions import ColumnRef, Comparison, Literal
from repro.engine.operators import ScanSelect
from repro.hardware import SystemConfig
from repro.hardware.calibration import GIB, MIB
from repro.harness import run_workload
from repro.workloads import sql_workload


AMOUNT = ColumnRef("sales", "amount")


def cold_config(streaming, **kwargs):
    defaults = dict(gpu_memory_bytes=1 * GIB, gpu_cache_bytes=0,
                    streaming_transfers=streaming)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def run_scan(toy_db, streaming):
    env, hw, ctx = make_context(toy_db, cold_config(streaming))
    op = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
    proc = env.process(execute_operator(ctx, op, [], "gpu",
                                        qctx=QueryContext(env, "q")))
    env.run()
    proc.value.release_device_memory()
    return env.now, hw


def test_streaming_overlaps_transfer_and_compute(toy_db):
    staged_time, _ = run_scan(toy_db, streaming=False)
    streaming_time, _ = run_scan(toy_db, streaming=True)
    assert streaming_time < staged_time


def test_streaming_never_beats_the_slower_component(toy_db):
    streaming_time, hw = run_scan(toy_db, streaming=True)
    column = toy_db.column("sales.amount")
    transfer = hw.bus.transfer_time(column.nominal_bytes)
    compute = hw.profile.compute_seconds(
        "selection", hw.gpu.kind, column.nominal_bytes
    )
    assert streaming_time >= max(transfer, compute) - 1e-9


def test_streaming_charges_the_same_bus_volume(toy_db):
    _, hw_staged = run_scan(toy_db, streaming=False)
    _, hw_streaming = run_scan(toy_db, streaming=True)
    assert (hw_streaming.metrics.cpu_to_gpu_bytes
            == hw_staged.metrics.cpu_to_gpu_bytes)


def test_streaming_results_identical(toy_db):
    queries = sql_workload(toy_db, {
        "q": "select region, sum(amount) as s from sales, store "
             "where skey = id group by region"
    })
    rows = {}
    for streaming in (False, True):
        config = dataclasses.replace(
            SystemConfig(), streaming_transfers=streaming
        )
        run = run_workload(toy_db, queries, "gpu_only", config=config,
                           warm_cache=False, collect_results=True)
        rows[streaming] = run.results["q"].row_tuples()
    assert rows[False] == rows[True]


def test_streaming_workload_not_slower(toy_db):
    queries = sql_workload(toy_db, {
        "q": "select sum(amount) as s from sales where price < 30"
    })
    times = {}
    for streaming in (False, True):
        config = cold_config(streaming, gpu_memory_bytes=2 * GIB)
        run = run_workload(toy_db, queries, "gpu_only", config=config,
                           warm_cache=False, repetitions=3)
        times[streaming] = run.seconds
    assert times[True] <= times[False] + 1e-9


def test_ablation_staged_vs_streaming_transfers():
    """Sec. 5.5: "the vector-at-a-time scheme can overlap data transfer
    and computation on the co-processor" — streaming hides kernel time
    behind the PCIe copies of cold inputs, but the thrashing does not
    disappear: the bus volume is unchanged, only the exposed latency
    drops to the slower of the two components.  (``pytest -s`` prints
    the table EXPERIMENTS.md quotes.)"""
    from repro.harness import experiments as E
    from repro.harness.tables import ExperimentResult
    from repro.workloads import micro

    database = E.ssb_database(10)
    queries = micro.serial_selection_workload(database)
    result = ExperimentResult(
        "Ablation: staged vs. streaming transfers (serial selections)")
    for streaming in (False, True):
        for gib in (0.0, 1.0, 2.0):
            config = dataclasses.replace(
                E.FULL_CONFIG, gpu_cache_bytes=int(gib * GIB),
                streaming_transfers=streaming)
            run = run_workload(database, queries, "gpu_only",
                               config=config, repetitions=6)
            result.add(mode="streaming" if streaming else "staged",
                       buffer_gib=gib, seconds=run.seconds,
                       h2d_seconds=run.metrics.cpu_to_gpu_seconds)
    print()
    result.print()
    seconds = result.series("buffer_gib", "seconds", "mode")
    h2d = result.series("buffer_gib", "h2d_seconds", "mode")
    # overlap helps in the transfer-bound regime ...
    assert dict(seconds["streaming"])[0.0] <= dict(seconds["staged"])[0.0]
    # ... but thrashing does not disappear (same bus volume)
    assert dict(h2d["streaming"])[0.0] == dict(h2d["staged"])[0.0]
