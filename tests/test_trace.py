"""Tests for execution tracing."""

from repro.harness import run_workload
from repro.hardware import SystemConfig
from repro.hardware.calibration import MIB
from repro.metrics import ExecutionTrace
from repro.workloads import sql_workload


SQL = {
    "q": (
        "select region, sum(amount) as s from sales, store "
        "where skey = id and amount < 40 group by region"
    )
}


def test_trace_disabled_by_default(toy_db):
    run = run_workload(toy_db, sql_workload(toy_db, SQL), "cpu_only")
    assert run.trace is None


def test_trace_records_every_operator(toy_db):
    run = run_workload(toy_db, sql_workload(toy_db, SQL), "cpu_only",
                       repetitions=2, trace=True)
    # 4 operators per execution x 2 executions
    assert len(run.trace) == 8
    assert all(e.processor == "cpu" for e in run.trace.events)
    assert all(e.query == "q" for e in run.trace.events)


def test_trace_windows_are_well_formed(toy_db):
    run = run_workload(toy_db, sql_workload(toy_db, SQL),
                       "data_driven_chopping", repetitions=3, trace=True)
    for event in run.trace.events:
        assert event.end >= event.start
        assert event.end <= run.seconds + 1e-9


def test_trace_captures_gpu_and_fallback(toy_db):
    config = SystemConfig(gpu_memory_bytes=5 * MIB, gpu_cache_bytes=4 * MIB)
    run = run_workload(toy_db, sql_workload(toy_db, SQL), "gpu_only",
                       config=config, trace=True)
    aborted = run.trace.aborted_events()
    assert aborted  # the starved device forces aborts
    assert any(e.processor == "cpu" for e in run.trace.events)
    # metrics and trace agree on the abort count
    assert len(aborted) == run.metrics.aborts


def test_trace_busy_seconds_by_processor(toy_db):
    run = run_workload(toy_db, sql_workload(toy_db, SQL), "cpu_only",
                       trace=True)
    busy = run.trace.busy_seconds()
    assert set(busy) == {"cpu"}
    assert busy["cpu"] > 0


def test_summary_and_timeline_render(toy_db):
    run = run_workload(toy_db, sql_workload(toy_db, SQL), "gpu_only",
                       repetitions=2, trace=True)
    summary = run.trace.summary()
    assert "operator executions" in summary
    assert "slowest operators" in summary
    timeline = run.trace.timeline_text(width=40)
    # all four operators ran on the (hot) device for this plan
    assert "gpu" in timeline
    assert "#" in timeline


def test_empty_trace_renders():
    trace = ExecutionTrace()
    assert trace.timeline_text() == "(empty trace)"
    assert "0 operator executions" in trace.summary()


def test_processor_ordering_host_first():
    trace = ExecutionTrace()
    trace.record("a", "selection", "gpu2", "q", 0.0, 1.0)
    trace.record("b", "selection", "cpu", "q", 0.0, 1.0)
    trace.record("c", "selection", "gpu", "q", 0.0, 1.0)
    assert trace.processors() == ["cpu", "gpu", "gpu2"]


def test_cli_trace_flag(capsys):
    from repro.cli import main

    code = main([
        "run", "--scale-factor", "1", "--repetitions", "1",
        "--strategy", "cpu_only", "--trace",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "timeline" in out
    assert "operator executions" in out
