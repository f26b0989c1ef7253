"""Intra-operator co-processing: morsel-grained CPU/GPU split execution.

Covers the split tentpole end to end:

* the chunk-merge substrate yields byte-identical results for any cut
  ratio and any chunk schedule (fixed sweep + hypothesis);
* DES runs with split enabled validate against the reference across
  ratio overrides, and compose with fault injection (a faulted GPU
  share runs on the CPU) and cancellation (both halves roll back);
* the ratio comes from the HyPE split-cost model, shifts toward the
  GPU on the coupled-platform preset, and feeds per-device realized
  throughput back into the observation store;
* ``Limit``-rooted plans fuse with cross-chunk early termination
  behind the same identity gate;
* the load tracker re-snapshots breaker penalties on ``refresh()``;
* metrics/CLI surface the split summary; disabled runs pay nothing.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import get_strategy
from repro.core.placement import STRATEGY_NAMES, SplitHype
from repro.engine import caches, morsel
from repro.engine.execution import (
    QueryContext,
    execute_functional,
    execute_operator,
    execute_operators,
)
from repro.engine.execution.split import (
    SPLIT_KINDS,
    SplitState,
    merged_split_result,
)
from repro.harness import experiments as E
from repro.harness.runner import run_workload
from repro.hardware import SystemConfig
from repro.hardware.calibration import GIB
from repro.hype.load import LoadTracker
from repro.hype.models import SplitCostModel
from repro.metrics import MetricsCollector
from repro.workloads import ssb, sql_workload, tpch

from tests.conftest import make_context, morsel_rows


@pytest.fixture(autouse=True)
def _fresh_engine_state(plan_cache_off):
    """Plan cache off (every execution must re-run), counters zeroed —
    same discipline as the morsel tests."""
    morsel.reset_stats()


def _signature(result):
    return (result.payload.row_tuples(), result.actual_rows,
            result.nominal_rows, result.row_width_bytes)


def _split_pipes(database):
    """(query, reference, pipe) for every SSB query whose fused
    pipeline supports partial merging."""
    out = []
    for query in ssb.workload(database):
        reference = execute_operators(query.instantiate(), database)
        try:
            pipe = morsel.build(query.instantiate(), database)
        except morsel.Decline:
            continue
        if pipe.supports_partials:
            out.append((query, reference, pipe))
    return out


# ---------------------------------------------------------------------------
# Chunk-merge identity: any ratio, any schedule
# ---------------------------------------------------------------------------

def test_merged_split_identity_every_ratio(ssb_db):
    gated = _split_pipes(ssb_db)
    assert gated  # the SSB suite must offer splittable plans
    for _, reference, pipe in gated:
        rows = pipe.fact_rows
        for ratio in (0.0, 0.25, 0.5, 0.75, 1.0):
            merged = merged_split_result(pipe, [int(rows * ratio)])
            assert _signature(merged) == _signature(reference)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_merged_split_identity_any_schedule(ssb_db, data):
    """Any chunk schedule — arbitrary, unordered, duplicated, or
    out-of-range cut points — merges byte-identically."""
    gated = _split_pipes(ssb_db)
    _, reference, pipe = data.draw(st.sampled_from(gated))
    rows = pipe.fact_rows
    boundaries = data.draw(
        st.lists(st.integers(min_value=-5, max_value=rows + 5), max_size=6))
    merged = merged_split_result(pipe, boundaries)
    assert _signature(merged) == _signature(reference)


def test_gate_accepts_ssb_suite(ssb_db):
    """Every SSB query passes the warm-up identity gate."""
    metrics = MetricsCollector()
    state = SplitState(SystemConfig(split=True), None)
    state.prepare(ssb_db, ssb.workload(ssb_db), metrics=metrics)
    assert state.ungated == set()
    assert len(state.splittable) == len(ssb.QUERIES)
    assert metrics.total("split_declines") == 0


# ---------------------------------------------------------------------------
# DES execution: validated runs across ratios and strategies
# ---------------------------------------------------------------------------

def _run_split(db, config, **kwargs):
    kwargs.setdefault("strategy", "runtime")
    strategy = kwargs.pop("strategy")
    kwargs.setdefault("validate", True)
    return run_workload(db, ssb.workload(db), strategy,
                        config=config, **kwargs)


def _rows(run):
    return {name: table.row_tuples() for name, table in run.results.items()}


@pytest.mark.parametrize("ratio", [0.25, 0.5, 0.75, 1.0])
def test_split_ratio_override_validates(ssb_db, ratio):
    run = _run_split(ssb_db, SystemConfig(split=True, split_ratio=ratio))
    assert run.metrics.total("split_operators") > 0
    summary = run.metrics.split_summary()
    assert summary["split_mean_chosen_ratio"] == pytest.approx(ratio)
    assert 0.0 <= summary["split_mean_realized_ratio"] <= 1.0


def test_split_adaptive_ratio_validates_and_rebalances(ssb_db):
    run = _run_split(ssb_db, SystemConfig(split=True), repetitions=2)
    summary = run.metrics.split_summary()
    assert summary["split_operators"] > 0
    assert 0.0 < summary["split_mean_chosen_ratio"] < 1.0


def test_split_strategy_registered_and_runs(ssb_db):
    assert "split" in STRATEGY_NAMES
    assert isinstance(get_strategy("split"), SplitHype)
    run = _run_split(ssb_db, SystemConfig(split=True), strategy="split")
    assert run.metrics.total("split_operators") > 0


# ---------------------------------------------------------------------------
# Zero overhead when disabled / declined
# ---------------------------------------------------------------------------

def test_split_summary_all_zero_when_disabled(ssb_db):
    run = _run_split(ssb_db, SystemConfig(), validate=False)
    summary = run.metrics.split_summary()
    assert all(value == 0 for value in summary.values())


def test_declined_split_changes_nothing(ssb_db):
    """split_ratio=0 declines every operator at the ratio floor before
    any simulated time passes — the makespan must match the pure run
    exactly."""
    pure = _run_split(ssb_db, SystemConfig(), validate=False,
                      collect_results=True)
    declined = _run_split(ssb_db,
                          SystemConfig(split=True, split_ratio=0.0),
                          validate=False, collect_results=True)
    assert declined.metrics.total("split_operators") == 0
    assert declined.metrics.total("split_declines", reason="ratio_floor") > 0
    assert declined.seconds == pure.seconds
    assert _rows(declined) == _rows(pure)


# ---------------------------------------------------------------------------
# Under heap pressure: what split execution is for
# ---------------------------------------------------------------------------

#: A GPU heap too small for the SF-5 SSB working sets beside a cache
#: large enough to keep the base columns warm: the pure device path
#: aborts mid-operator, the split path caps its ratio and fits.
PRESSURE = SystemConfig(gpu_memory_bytes=int(1.0 * GIB),
                        gpu_cache_bytes=int(0.75 * GIB))


def _pressure_run(strategy, config, **kwargs):
    database = E.ssb_database(5)
    return run_workload(database, ssb.workload(database), strategy,
                        config=config, **kwargs)


def _wasted(run):
    metrics = run.metrics
    return metrics.wasted_seconds + metrics.total("split_wasted_seconds")


def test_split_beats_the_best_pure_placement_under_heap_pressure():
    """The GPU contributes its heap-capped share instead of aborting,
    the CPU the rest: >= 1.15x over the better of cpu_only / gpu_only,
    and none of the work the GPU's aborts waste (``repro run --split
    --gpu-memory-gib 1 --gpu-cache-gib 0.75 --scale-factor 5 --strategy
    runtime`` prints the split block)."""
    pure_cpu = _pressure_run("cpu_only", PRESSURE)
    pure_gpu = _pressure_run("gpu_only", PRESSURE)
    split = _pressure_run("runtime", replace(PRESSURE, split=True))
    assert pure_gpu.metrics.aborts > 0  # the pressure is real
    assert split.metrics.total("split_operators") > 0
    assert split.metrics.aborts == 0
    assert _wasted(split) == 0
    assert _wasted(split) < _wasted(pure_gpu)
    assert (min(pure_cpu.seconds, pure_gpu.seconds)
            >= 1.15 * split.seconds)


def test_split_runs_are_deterministic_under_heap_pressure():
    """The ratio reads only simulated state: two identical runs agree
    on the makespan, every result row and every split counter."""
    config = replace(PRESSURE, split=True)
    first = _pressure_run("runtime", config, collect_results=True)
    second = _pressure_run("runtime", config, collect_results=True)
    assert first.metrics.total("split_operators") > 0
    assert first.seconds == second.seconds
    assert first.metrics.split_summary() == second.metrics.split_summary()
    assert _rows(first) == _rows(second)


# ---------------------------------------------------------------------------
# Composition: faults (PR3) and cancellation / deadlines (PR5)
# ---------------------------------------------------------------------------

def test_split_composes_with_faults(ssb_db):
    """Kernel faults mid-split degrade the operator to pure CPU (the
    GPU share's time is wasted work) and still validate."""
    run = _run_split(ssb_db, SystemConfig(split=True),
                     faults="kernel=0.6,seed=11", repetitions=2)
    assert run.faults_injected > 0
    assert run.metrics.total("split_operators", degraded=True) > 0
    assert run.metrics.total("split_wasted_seconds") > 0


def test_split_declines_when_breaker_open(ssb_db):
    """With the breaker certain to open, later split attempts decline
    up front instead of feeding work to a dead device.  (Cost-based
    strategies route around the device entirely; gpu_only keeps
    dispatching to it, so the decline path is what protects the run.)"""
    run = _run_split(ssb_db, SystemConfig(split=True),
                     faults="kernel=1.0,seed=3", repetitions=2,
                     strategy="gpu_only")
    assert run.metrics.total("split_declines", reason="breaker_open") > 0
    assert run.metrics.total("split_operators", degraded=True) > 0


def _validated_run(monkeypatch, db, queries, strategy, config, **kwargs):
    """A validated ``run_workload`` and the platform it ran on."""
    from repro.harness import runner

    built = []
    build = runner.build_platform

    def capture(*args, **build_kwargs):
        built.append(build(*args, **build_kwargs))
        return built[-1]

    monkeypatch.setattr(runner, "build_platform", capture)
    run = run_workload(db, queries, strategy, config=config, validate=True,
                       **kwargs)
    return run, built[0]


def _heaps_empty(ctx):
    return all(gpu.heap.used == 0 and not gpu.heap.live_allocations
               for gpu in ctx.hardware.gpus)


def test_split_declines_at_the_ratio_ceiling(tpch_db, monkeypatch):
    """A GPU share above 1 - MIN_SHARE runs the pure placement instead.
    On the coupled preset with a warm cache nothing crosses a bus, and
    HyPE's linear fit of the GPU selection extrapolates to zero seconds
    at TPC-H's smaller fact scans, so r* = 1 there."""
    run, ctx = _validated_run(monkeypatch, tpch_db, tpch.workload(tpch_db),
                              "gpu_only", SystemConfig.coupled_gpu(),
                              repetitions=2)
    assert run.metrics.total("split_declines", reason="ratio_ceiling") > 0
    assert run.metrics.total("split_operators") > 0
    assert _heaps_empty(ctx)


@pytest.mark.parametrize("faults", ["pcie=0.3,seed=1", "heap=0.3,seed=1"])
def test_failed_staging_degrades_the_split_to_pure_cpu(ssb_db, monkeypatch,
                                                       faults):
    """A transfer or heap fault while the GPU share stages wastes the
    staging time and leaves the whole operator to the CPU share.  No
    kernel fault is injected, so every degrade here is a staging one."""
    run, ctx = _validated_run(monkeypatch, ssb_db, ssb.workload(ssb_db),
                              "runtime", SystemConfig(split=True),
                              faults=faults, repetitions=2)
    assert set(run.fault_classes) == {faults.split("=")[0]}
    assert run.metrics.total("split_operators", degraded=True) > 0
    assert run.metrics.total("split_wasted_seconds") > 0
    assert _heaps_empty(ctx)


def test_a_query_degraded_to_the_cpu_never_splits(ssb_db, monkeypatch):
    """Admission's degrade-to-cpu policy bars a query from the
    co-processors: placement sends every operator of it to the CPU, so
    none reaches the split, while the queries admitted normally do."""
    calls = []
    try_split = SplitState.try_split

    def spy(self, ctx, device, op, child_results, input_bytes, qctx):
        calls.append(qctx.force_cpu)
        return try_split(self, ctx, device, op, child_results, input_bytes,
                         qctx)

    monkeypatch.setattr(SplitState, "try_split", spy)
    run, ctx = _validated_run(
        monkeypatch, ssb_db, ssb.workload(ssb_db), "runtime",
        SystemConfig(split=True), users=4,
        lifecycle="max_inflight=1,policy=degrade-to-cpu")
    assert run.metrics.total("degraded") > 0
    assert run.metrics.total("split_operators") > 0
    assert calls and not any(calls)
    assert _heaps_empty(ctx)


def _manual_split(db, config):
    """Drive one try_split as a raw DES process; returns
    (env, ctx, device, process, qctx)."""
    env, hardware, ctx = make_context(db, config)
    state = SplitState(config, ctx.cost_model)
    queries = ssb.workload(db)[:1]
    state.prepare(db, queries)
    ctx.split = state
    plan = queries[0].instantiate()

    def produce(op):
        return op.produce(db, [produce(c) for c in op.children])

    target = next(op for op in plan.operators
                  if op.kind in SPLIT_KINDS
                  and not op.cpu_only and op.children)
    children = [produce(c) for c in target.children]
    input_bytes = target.input_nominal_bytes(db, children)
    device = hardware.device("gpu")
    qctx = QueryContext(env, queries[0].name, metrics=ctx.metrics)
    process = env.process(state.try_split(
        ctx, device, target, children, input_bytes, qctx))
    process.defused = True
    qctx.register(process)
    return env, ctx, device, process, qctx


SPLIT_HALF = dict(split=True, split_ratio=0.5)


def test_manual_split_completes_and_observes(ssb_db):
    env, ctx, device, process, _ = _manual_split(
        ssb_db, SystemConfig(**SPLIT_HALF))
    env.run()
    assert env.now > 0
    result = process.value
    assert result is not None and result.location == "cpu"
    # both halves released their device memory
    assert device.heap.used == 0
    assert not device.heap.live_allocations
    assert ctx.metrics.total("split_operators") == 1


def test_split_observations_tagged(ssb_db):
    env, ctx, device, process, _ = _manual_split(
        ssb_db, SystemConfig(**SPLIT_HALF))
    env.run()
    tagged = [
        obs
        for key in ctx.cost_model.store.keys()
        for obs in ctx.cost_model.store.get(*key)
        if obs.source == "split"
    ]
    # one CPU + one GPU share observation for the single split operator
    assert len(tagged) == 2


def test_cancellation_rolls_back_both_halves(ssb_db):
    # measure the uncancelled duration first, then cancel halfway
    env, _, _, _, _ = _manual_split(ssb_db, SystemConfig(**SPLIT_HALF))
    env.run()
    duration = env.now
    assert duration > 0

    env, ctx, device, process, qctx = _manual_split(
        ssb_db, SystemConfig(**SPLIT_HALF))

    def canceller():
        yield env.timeout(duration / 2)
        qctx.cancel("test")

    env.process(canceller())
    env.run()
    assert qctx.cancelled
    assert not process.ok
    # the rollback freed every staged and working allocation
    assert device.heap.used == 0
    assert not device.heap.live_allocations
    assert ctx.metrics.total("split_operators") == 0


def test_split_waits_for_inflight_column(ssb_db):
    """Split on the async link: a cached column can still be on the
    wire (the pure operator below admitted it while its background copy
    runs).  The split operator coalesces onto that copy and its GPU
    share waits for it to land."""
    config = SystemConfig(split=True, copy_engine=True, split_ratio=0.5)
    env, hardware, ctx = make_context(ssb_db, config)
    pure_query, split_query = ssb.workload(ssb_db)[:2]
    ctx.split = SplitState(config, ctx.cost_model)
    ctx.split.prepare(ssb_db, [split_query])  # the other plan never splits
    device = hardware.device("gpu")

    def fact_scan(query):
        return next(op for op in query.instantiate().operators
                    if op.label == "Scan(lineorder)")

    pure_op, split_op = fact_scan(pure_query), fact_scan(split_query)
    keys = sorted(split_op.required_columns())
    assert keys == sorted(pure_op.required_columns())
    assert not any(key in device.cache for key in keys)

    def arrive_mid_copy():
        yield env.timeout(ctx.bus.latency / 2)
        assert all(ctx.bus.in_flight("gpu", "h2d", key) for key in keys)
        yield from execute_operator(
            ctx, split_op, [], "gpu", qctx=QueryContext(env, "split"),
            input_bytes=split_op.input_nominal_bytes(ctx.database, []))

    pure_process = env.process(execute_operator(
        ctx, pure_op, [], "gpu", qctx=QueryContext(env, "pure"),
        input_bytes=pure_op.input_nominal_bytes(ctx.database, [])))
    split_process = env.process(arrive_mid_copy())
    on_the_wire_at_launch = []
    submit = device.processor.submit

    def spy(seconds):
        if env.active_process is split_process:
            on_the_wire_at_launch.append(
                [key for key in keys
                 if ctx.bus.in_flight("gpu", "h2d", key)])
        return submit(seconds)

    device.processor.submit = spy
    env.run()
    assert ctx.metrics.total("split_operators") == 1
    assert ctx.metrics.total("split_declines", reason="ungated_plan") == 1
    assert on_the_wire_at_launch  # the split did launch its GPU share
    assert on_the_wire_at_launch[0] == []
    assert ctx.metrics.coalesced_transfers >= 1
    # only the pure operator's device-resident result is left
    pure_process.value.release_device_memory()
    assert device.heap.used == 0
    assert all(device.cache.entry(key).refcount == 0 for key in keys)


# ---------------------------------------------------------------------------
# Coupled-platform preset: the ratio shifts toward the GPU
# ---------------------------------------------------------------------------

def test_coupled_preset_fields():
    config = SystemConfig.coupled_gpu()
    assert config.coupled and config.split
    pcie = SystemConfig()
    assert (config.pcie_bandwidth_bytes_per_second
            > pcie.pcie_bandwidth_bytes_per_second)
    override = SystemConfig.coupled_gpu(split_ratio=0.5)
    assert override.split_ratio == 0.5 and override.coupled


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(split_ratio=1.5)
    SystemConfig(split=True, split_ratio=0.5)


def test_coupled_ratio_shifts_toward_gpu(ssb_db):
    """arXiv 1307.1955's headline effect: with the PCIe transfer term
    gone, the split-cost model assigns the GPU a larger share."""
    pcie = _run_split(ssb_db, SystemConfig(split=True), validate=False)
    coupled = _run_split(ssb_db, SystemConfig.coupled_gpu(),
                         validate=False)
    assert pcie.metrics.total("split_operators") > 0
    assert coupled.metrics.total("split_operators") > 0
    assert (coupled.metrics.split_summary()["split_mean_chosen_ratio"]
            > pcie.metrics.split_summary()["split_mean_chosen_ratio"])


# ---------------------------------------------------------------------------
# Split cost model + load tracker units
# ---------------------------------------------------------------------------

def test_split_cost_model_balance():
    model = SplitCostModel(None)
    assert model.balance(0.0, 0.0, 0.0) == 0.5
    assert model.balance(1.0, 1.0, 0.0) == 0.5
    # transfer cost shrinks the GPU share
    assert model.balance(1.0, 1.0, 2.0) == 0.25
    # a fast GPU earns a larger share
    assert model.balance(3.0, 1.0, 0.0) == 0.75


class _StubResilience:
    enabled = True

    def __init__(self):
        self.penalty = 0.0

    def placement_penalty(self, name, now):
        return self.penalty


def test_load_tracker_refresh_resnapshots():
    tracker = LoadTracker()
    resilience = _StubResilience()
    tracker.attach_resilience(resilience, clock=lambda: 0.0)
    tracker.assign("gpu", 1.0)
    assert tracker.estimated_completion("gpu") == 1.0
    # the breaker opens, but the snapshot is stale until refresh()
    resilience.penalty = float("inf")
    assert tracker.estimated_completion("gpu") == 1.0
    tracker.refresh("gpu")
    assert tracker.estimated_completion("gpu") == float("inf")
    # it closes again; a no-argument refresh re-reads all known names
    resilience.penalty = 0.0
    tracker.refresh()
    assert tracker.estimated_completion("gpu") == 1.0
    tracker.reset()
    assert tracker.estimated_completion("gpu") == 0.0


# ---------------------------------------------------------------------------
# Limit over the fused chain: byte for byte the operator path
# ---------------------------------------------------------------------------

LIMIT_SQL = ("select lo_orderkey, lo_quantity from lineorder "
             "where lo_discount >= 5 limit 50")


def _run_sql(db, sql, execute=execute_functional):
    (query,) = sql_workload(db, {"q": sql})
    return execute(query.instantiate(), db)


@pytest.mark.parametrize("rows_per_morsel", [100, 1000, 1_000_000_000])
def test_limit_fused_identity(ssb_db, rows_per_morsel):
    reference = _run_sql(ssb_db, LIMIT_SQL, execute_operators)
    with morsel_rows(rows_per_morsel):
        fused = _run_sql(ssb_db, LIMIT_SQL)
    assert _signature(fused) == _signature(reference)


def test_limit_over_sort_declines_but_matches(ssb_db):
    sql = ("select lo_orderkey from lineorder where lo_discount >= 5 "
           "order by lo_orderkey limit 10")
    reference = _run_sql(ssb_db, sql, execute_operators)
    with morsel_rows(100):
        fused = _run_sql(ssb_db, sql)
    assert _signature(fused) == _signature(reference)


def test_limit_never_memoises_prefix(ssb_db, plan_cache_off):
    """A limited run must not poison shared-chain memos: the same scan
    re-run without the limit yields the full result."""
    no_limit = LIMIT_SQL.rsplit(" limit", 1)[0]
    full_reference = _run_sql(ssb_db, no_limit, execute_operators)
    plan_cache_off.close()
    try:
        with morsel_rows(100):
            limited = _run_sql(ssb_db, LIMIT_SQL)
            full = _run_sql(ssb_db, no_limit)
        assert limited.actual_rows == 50
        assert _signature(full) == _signature(full_reference)
    finally:
        caches.memo(ssb_db, "plan").clear()


# ---------------------------------------------------------------------------
# Metrics + CLI surface
# ---------------------------------------------------------------------------

def test_metrics_split_summary():
    metrics = MetricsCollector()
    summary = metrics.split_summary()
    assert summary["split_operators"] == 0
    assert summary["split_mean_chosen_ratio"] == 0
    for degraded, chosen, realized, gpu, cpu in (
            (False, 0.6, 0.4, 1.0, 2.0), (True, 0.2, 0.0, 0.0, 3.0)):
        metrics.count("split_operators", degraded=degraded)
        metrics.count("split_chosen_ratio", chosen)
        metrics.count("split_realized_ratio", realized)
        metrics.count("split_gpu_seconds", gpu)
        metrics.count("split_cpu_seconds", cpu)
    metrics.count("split_declines", reason="ratio_floor")
    metrics.count("split_wasted_seconds", 0.25)
    summary = metrics.split_summary()
    assert summary["split_operators"] == 2
    assert summary["split_mean_chosen_ratio"] == pytest.approx(0.4)
    assert summary["split_mean_realized_ratio"] == pytest.approx(0.2)
    assert summary["split_degrades"] == 1
    assert summary["split_declines"] == 1
    assert summary["split_gpu_seconds"] == pytest.approx(1.0)
    assert summary["split_cpu_seconds"] == pytest.approx(5.0)
    assert summary["split_wasted_seconds"] == pytest.approx(0.25)


def test_cli_split_report(capsys):
    code = main([
        "run", "--scale-factor", "1", "--repetitions", "1",
        "--strategy", "runtime", "--split",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "split execution" in out
    assert "split_operators" in out


def test_cli_coupled_implies_split(capsys):
    code = main([
        "run", "--scale-factor", "1", "--repetitions", "1",
        "--strategy", "runtime", "--coupled",
    ])
    assert code == 0
    assert "split execution" in capsys.readouterr().out
