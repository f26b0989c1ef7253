"""Tests for the overload-safe query lifecycle layer.

Covers the three tentpole features (admission control, deadlines with
cooperative cancellation, straggler hedging), the zero-overhead
guarantee of the disabled layer, and the PR's satellites: prefetcher
skip-set invalidation through the cache registry, per-device breaker
open time in ``fault_summary``, cancellation racing an in-flight
coalesced copy-engine transfer, and the hypothesis property that a
prefix-cancelled query stream leaves the system in a state where
re-running uncancelled yields byte-identical results.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_context
from repro.core import ChoppingExecutor
from repro.core.placement import RuntimeHype
from repro.engine import caches
from repro.engine.execution import (
    AdmissionController,
    LifecycleConfig,
    QueryCancelled,
    QueryContext,
    execute_functional,
)
from repro.faults import FaultConfig
from repro.harness import experiments as E
from repro.harness.runner import run_workload
from repro.hardware import SystemConfig
from repro.hardware.copy_engine import CopyEngine
from repro.hardware.errors import PCIeTransferFault
from repro.metrics import MetricsCollector
from repro.sim import Environment, Interrupted
from repro.workloads import ssb


def _run(db, lifecycle=None, strategy="chopping", users=4, faults=None,
         validate=False, collect_results=False):
    return run_workload(
        db, ssb.workload(db), strategy, config=E.FULL_CONFIG,
        users=users, repetitions=1, faults=faults, lifecycle=lifecycle,
        validate=validate, collect_results=collect_results,
    )


def _payload_rows(run):
    return {name: tuple(table.row_tuples())
            for name, table in run.results.items()}


# ---------------------------------------------------------------------------
# LifecycleConfig parsing / validation
# ---------------------------------------------------------------------------

def test_config_defaults_are_disabled():
    config = LifecycleConfig()
    assert not config.enabled
    assert LifecycleConfig.coerce(None) is None


def test_config_parse_spec_and_aliases():
    config = LifecycleConfig.parse(
        "max_inflight=4,policy=shed,deadline=2.5,hedge=3,headroom=0.1")
    assert config.max_inflight == 4
    assert config.overload_policy == "shed"
    assert config.deadline_seconds == 2.5
    assert config.hedge_factor == 3.0
    assert config.heap_headroom_fraction == 0.1
    assert config.enabled
    assert LifecycleConfig.coerce("max_inflight=2").max_inflight == 2


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        LifecycleConfig(max_inflight=0)
    with pytest.raises(ValueError):
        LifecycleConfig(overload_policy="panic")
    with pytest.raises(ValueError):
        LifecycleConfig(deadline_seconds=0.0)
    with pytest.raises(ValueError):
        LifecycleConfig(hedge_factor=-1.0)
    with pytest.raises(ValueError):
        LifecycleConfig.parse("no_such_knob=1")


# ---------------------------------------------------------------------------
# Zero overhead when disabled
# ---------------------------------------------------------------------------

def test_disabled_lifecycle_is_zero_overhead(ssb_db):
    base = _run(ssb_db, lifecycle=None, collect_results=True)
    off = _run(ssb_db, lifecycle=LifecycleConfig(), collect_results=True)
    assert not base.lifecycle_enabled and not off.lifecycle_enabled
    assert base.seconds == off.seconds
    assert _payload_rows(base) == _payload_rows(off)


def test_disabled_lifecycle_keeps_fault_digest(ssb_db):
    faults = FaultConfig.uniform(0.05, seed=7)
    base = _run(ssb_db, lifecycle=None, faults=faults)
    off = _run(ssb_db, lifecycle=LifecycleConfig(), faults=faults)
    assert base.fault_digest == off.fault_digest
    assert base.faults_injected == off.faults_injected
    assert base.seconds == off.seconds


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

def test_admission_queue_policy_completes_everything(ssb_db):
    run = _run(ssb_db, lifecycle=LifecycleConfig(max_inflight=2),
               users=6, validate=True)
    metrics = run.metrics
    assert run.lifecycle_enabled
    assert metrics.total("admission_waits") > 0
    assert metrics.total("admission_wait_seconds") > 0.0
    # queueing delays but never drops: the whole stream completes
    assert len(metrics.queries) == len(ssb.workload(ssb_db))
    assert metrics.total("sheds") == 0
    assert len(metrics.cancelled_queries) == 0


def test_admission_shed_policy_drops_excess_load(ssb_db):
    run = _run(ssb_db, users=6, validate=True,
               lifecycle=LifecycleConfig(max_inflight=1,
                                         overload_policy="shed"))
    metrics = run.metrics
    shed = metrics.total("sheds")
    assert shed > 0
    assert len(metrics.queries) + shed == len(ssb.workload(ssb_db))


def test_admission_degrade_policy_runs_on_cpu(ssb_db):
    run = _run(ssb_db, users=6, validate=True,
               lifecycle=LifecycleConfig(max_inflight=1,
                                         overload_policy="degrade-to-cpu"))
    metrics = run.metrics
    assert metrics.total("degraded") > 0
    # degraded queries still complete (on the CPU), nothing is dropped
    assert len(metrics.queries) == len(ssb.workload(ssb_db))


def test_admission_bounds_the_tail_at_four_times_the_load():
    """What admission control is for (``repro figures overload`` prints
    the sweep): at 4x load the shed policy keeps the p99 latency within
    3x of the single-user p99, while the unmanaged stream's p99 grows
    with the queue depth and ends above the admitted one."""
    database = E.ssb_database(5)
    admission = LifecycleConfig(max_inflight=2, overload_policy="shed")

    def metrics(users, lifecycle):
        return _run(database, lifecycle=lifecycle, users=users).metrics

    def p99(collected):
        return collected.latency_percentile(0.99)

    single, loaded = metrics(1, admission), metrics(4, admission)
    unmanaged_single, unmanaged_loaded = metrics(1, None), metrics(4, None)
    assert loaded.total("sheds") > 0
    assert p99(loaded) <= 3.0 * p99(single)
    assert p99(unmanaged_single) < p99(unmanaged_loaded)
    assert p99(loaded) < p99(unmanaged_loaded)


def test_admission_controller_fifo_wakeup():
    """Direct-drive: queued waiters are woken in order, slots balance."""
    env = Environment()
    hardware = type("H", (), {"gpus": ()})()
    controller = AdmissionController(
        env, hardware, LifecycleConfig(max_inflight=1), MetricsCollector())
    order = []

    def query(name, hold):
        decision = yield from controller.admit(QueryContext(env, name))
        assert decision == "run"
        order.append(name)
        yield env.timeout(hold)
        controller.release()

    for name, hold in (("a", 3.0), ("b", 1.0), ("c", 1.0)):
        env.process(query(name, hold))
    env.run()
    assert order == ["a", "b", "c"]
    assert controller.inflight == 0
    assert controller.queue_depth == 0


# ---------------------------------------------------------------------------
# Deadlines and cooperative cancellation
# ---------------------------------------------------------------------------

def test_cancel_interrupts_only_the_processes_still_alive():
    """Direct-drive: ``register`` only appends; a query cancelled after
    some of its operator processes finished interrupts the live ones,
    joins them, and records the cancel latency once they drained."""
    env = Environment()
    metrics = MetricsCollector()
    qctx = QueryContext(env, "q", metrics=metrics)
    outcomes = {}

    def operator(name, seconds, rollback):
        try:
            yield env.timeout(seconds)
            outcomes[name] = ("finished", env.now)
        except Interrupted as interrupt:
            assert isinstance(interrupt.cause, QueryCancelled)
            yield env.timeout(rollback)  # the abort protocol takes time
            outcomes[name] = ("interrupted", env.now)

    registered = []
    for name, seconds, rollback in (("a", 1.0, 0.0), ("b", 2.0, 0.0),
                                    ("c", 5.0, 0.25), ("d", 9.0, 0.5)):
        process = env.process(operator(name, seconds, rollback))
        process.defused = True
        qctx.register(process)
        registered.append(process)
    env.run(until=3.0)
    late = env.process(operator("e", 0.5, 0.125))
    late.defused = True
    qctx.register(late)
    registered.append(late)
    # registration looks at nobody: finished processes stay listed
    assert qctx._procs == registered
    assert [p.is_alive for p in registered] == [
        False, False, True, True, True]
    assert qctx.cancel("deadline") is True
    assert qctx.cancel("deadline") is False  # already cancelled
    env.run()
    assert outcomes == {
        "a": ("finished", 1.0), "b": ("finished", 2.0),
        "c": ("interrupted", 3.25), "d": ("interrupted", 3.5),
        "e": ("interrupted", 3.125),
    }
    assert not any(p.is_alive for p in registered)
    # drained: the latency is the slowest rollback, recorded once
    assert metrics.total("cancels") == 1
    assert metrics.total("cancel_seconds") == pytest.approx(0.5)
    assert env.peek() == float("inf")


def _median_latency(run):
    return run.metrics.latency_percentile(0.50)


def test_deadline_cancels_and_survivors_stay_correct(ssb_db):
    base = _run(ssb_db, users=4, collect_results=True)
    deadline = _median_latency(base) * 0.5
    assert deadline > 0.0
    run = _run(ssb_db, users=4, validate=True, collect_results=True,
               lifecycle=LifecycleConfig(deadline_seconds=deadline))
    metrics = run.metrics
    cancelled = len(metrics.cancelled_queries)
    total = len(ssb.workload(ssb_db))
    assert 0 < cancelled < total  # some are cancelled, some survive
    assert metrics.total("deadline_misses") == cancelled
    assert len(metrics.queries) + cancelled == total
    # the survivors' results are byte-identical to an uncancelled run
    base_rows = _payload_rows(base)
    for name, rows in _payload_rows(run).items():
        assert rows == base_rows[name]


def test_cancelled_run_leaves_device_state_clean(ssb_db):
    base = _run(ssb_db, users=4)
    deadline = _median_latency(base) * 0.5
    run = _run(ssb_db, users=4,
               lifecycle=LifecycleConfig(deadline_seconds=deadline))
    assert len(run.metrics.cancelled_queries) > 0
    # cancel drains were recorded for every cancellation
    assert run.metrics.total("cancels") == len(run.metrics.cancelled_queries)


# ---------------------------------------------------------------------------
# Straggler hedging
# ---------------------------------------------------------------------------

def test_hedging_races_stragglers_and_stays_correct(ssb_db):
    run = _run(ssb_db, users=2, validate=True,
               faults=FaultConfig.parse("stall=0.4,seed=7"),
               lifecycle=LifecycleConfig(hedge_factor=1.5))
    metrics = run.metrics
    assert metrics.total("hedges_started") > 0
    # every resolved hedge has exactly one winner
    assert (metrics.total("hedge_races", won=True) + metrics.total("hedge_races", won=False)
            <= metrics.total("hedges_started"))
    assert metrics.total("hedge_races", won=True) > 0
    assert len(metrics.queries) == len(ssb.workload(ssb_db))


def test_hedging_wins_while_the_cpu_pool_is_idle():
    """The guard of the ROADMAP's "keep hedging" decision: the best
    cell of the grid in docs/robustness.md.  One user leaves the CPU
    workers idle, so the hedge copy of a stalled GPU operator finishes
    long before the stall watchdog gives the kernel up."""
    database = E.ssb_database(5)

    def makespan(lifecycle):
        run = run_workload(
            database, ssb.workload(database), "chopping",
            config=E.FULL_CONFIG, users=1, repetitions=2,
            faults="stall=0.1,seed=7", lifecycle=lifecycle)
        return run.metrics

    unhedged = makespan(None)
    hedged = makespan(LifecycleConfig(hedge_factor=1.5))
    assert hedged.total("hedge_races", won=True) > hedged.total("hedge_races", won=False)
    assert hedged.workload_seconds < unhedged.workload_seconds


def test_hedging_disabled_on_runtime_strategy(ssb_db):
    """The eager executor has no worker pools: hedging is a no-op."""
    run = _run(ssb_db, strategy="runtime", users=2,
               lifecycle=LifecycleConfig(hedge_factor=0.5))
    assert run.metrics.total("hedges_started") == 0
    assert len(run.metrics.queries) == len(ssb.workload(ssb_db))


def test_combined_lifecycle_under_faults(ssb_db):
    """Admission + deadlines + hedging + fault injection all at once."""
    base = _run(ssb_db, users=8)
    run = _run(ssb_db, users=8, validate=True,
               faults=FaultConfig.uniform(0.02, seed=7),
               lifecycle=LifecycleConfig(
                   max_inflight=2, hedge_factor=3.0,
                   deadline_seconds=_median_latency(base) * 20.0))
    metrics = run.metrics
    total = len(ssb.workload(ssb_db))
    assert len(metrics.queries) + len(metrics.cancelled_queries) == total
    assert metrics.total("admission_waits") > 0


# ---------------------------------------------------------------------------
# Satellite: per-device breaker open time in fault_summary
# ---------------------------------------------------------------------------

def test_fault_summary_reports_breaker_open_seconds(ssb_db):
    run = _run(ssb_db, strategy="runtime", users=2,
               faults=FaultConfig.uniform(0.2, seed=7))
    summary = run.metrics.fault_summary()
    assert "breaker_open_seconds" in summary
    per_device = [key for key in summary
                  if key.startswith("breaker_open_seconds_")]
    if summary.get("breaker_to_open", 0) > 0:
        assert summary["breaker_open_seconds"] > 0.0
        assert per_device
        assert summary["breaker_open_seconds"] == pytest.approx(
            sum(summary[key] for key in per_device))


# ---------------------------------------------------------------------------
# Satellite: prefetcher skip sets clear through the cache registry
# ---------------------------------------------------------------------------

def test_prefetch_skips_cleared_by_cache_registry(ssb_db, tpch_db):
    from repro.core.data_placement import (
        DataPlacementManager, PlacementPrefetcher)

    env, hw, ctx = make_context(ssb_db, SystemConfig(copy_engine=True))
    manager = DataPlacementManager(ssb_db, cache=hw.gpu_cache)
    prefetcher = PlacementPrefetcher(hw, manager)
    device = hw.gpu_names[0]
    prefetcher._skip[device] = {"some.column", "other.column"}
    assert "prefetch_skips" in caches.registered()
    assert caches.cache_sizes()["prefetch_skips"] >= 2
    # clearing caches of an unrelated database leaves the skips alone
    caches.invalidate_all(database=tpch_db)
    assert prefetcher.skip_count() == 2
    # clearing this database's caches (or everything) drops them
    caches.invalidate_all(database=ssb_db)
    assert prefetcher.skip_count() == 0
    prefetcher._skip[device] = {"some.column"}
    E.clear_database_caches()
    assert prefetcher.skip_count() == 0


# ---------------------------------------------------------------------------
# Satellite: cancellation racing an in-flight coalesced transfer
# ---------------------------------------------------------------------------

def _coalescing_engine():
    env = Environment()
    metrics = MetricsCollector()
    engine = CopyEngine(env, bandwidth_bytes_per_second=1024.0,
                        chunk_bytes=256, metrics=metrics)
    return env, metrics, engine


def test_cancelling_attached_waiter_leaves_owner_running():
    env, metrics, engine = _coalescing_engine()
    nbytes = 1024  # 4 chunks, 1.0 s of wire time
    finished = {}

    def owner():
        yield from engine.transfer(nbytes, "h2d", device="gpu0", key="col")
        finished["owner"] = env.now

    def waiter():
        yield from engine.transfer(nbytes, "h2d", device="gpu0", key="col")
        finished["waiter"] = env.now

    env.process(owner())
    victim = env.process(waiter())

    def cancel():
        yield env.timeout(0.5)
        victim.defused = True
        victim.interrupt(QueryCancelled("q", "deadline"))

    env.process(cancel())
    env.run()
    # the owning copy is untouched: full wire time, full bytes, once
    assert finished["owner"] == pytest.approx(1.0)
    assert "waiter" not in finished
    assert metrics.cpu_to_gpu_bytes == nbytes
    assert metrics.coalesced_transfers == 1
    assert not engine.in_flight("gpu0", "h2d", "col")


def test_cancelling_owner_spares_coalesced_waiter():
    env, metrics, engine = _coalescing_engine()
    nbytes = 1024  # 4 chunks, 1.0 s of wire time
    finished = {}

    def owner():
        try:
            yield from engine.transfer(nbytes, "h2d", device="gpu0",
                                       key="col")
        except Interrupted:
            finished["owner"] = "cancelled"
            return
        finished["owner"] = env.now

    def waiter():
        yield env.timeout(0.1)  # attach to the copy already on the wire
        try:
            yield from engine.transfer(nbytes, "h2d", device="gpu0",
                                       key="col")
        except PCIeTransferFault:
            # the owner died; retry under our own policy, like the
            # operator-level resilience layer would
            yield from engine.transfer(nbytes, "h2d", device="gpu0",
                                       key="col")
        finished["waiter"] = env.now

    victim = env.process(owner())
    env.process(waiter())

    def cancel():
        yield env.timeout(0.5)
        victim.defused = True
        victim.interrupt(QueryCancelled("q", "deadline"))

    env.process(cancel())
    env.run()
    # the waiter survives the owner's cancellation and completes its
    # own full copy after the retry
    assert finished["owner"] == "cancelled"
    assert finished["waiter"] == pytest.approx(1.5)
    assert not engine.in_flight("gpu0", "h2d", "col")
    # accounting is chunk-aligned: the aborted copy burned 0.5 s and
    # landed exactly two whole 256-byte chunks, the retry landed all 4
    assert metrics.cpu_to_gpu_bytes == 2 * 256 + nbytes
    assert metrics.cpu_to_gpu_seconds == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# Satellite: prefix-cancelled streams leave no residue (property test)
# ---------------------------------------------------------------------------

N_STREAM = 4


def _stream_queries(db):
    return ssb.workload(db)[:N_STREAM]


def _reference_rows(db):
    return [tuple(execute_functional(q.instantiate(), db)
                  .payload.row_tuples())
            for q in _stream_queries(db)]


def _clean_makespan(db):
    env, hw, ctx = make_context(db, E.FULL_CONFIG)
    chopper = ChoppingExecutor(ctx, RuntimeHype())
    for query in _stream_queries(db):
        chopper.submit(query.instantiate())
    env.run()
    return env.now


@settings(max_examples=8, deadline=None)
@given(prefix=st.integers(min_value=1, max_value=N_STREAM),
       fraction=st.floats(min_value=0.0, max_value=1.0))
def test_prefix_cancelled_stream_leaves_byte_identical_rerun(
        ssb_db, prefix, fraction):
    """Cancel the first ``prefix`` queries of a concurrent stream at an
    arbitrary point of its makespan; re-running the full stream in the
    same simulation must yield byte-identical results and a clean heap.
    """
    expected = _reference_rows(ssb_db)
    cancel_at = _clean_makespan(ssb_db) * fraction

    env, hw, ctx = make_context(ssb_db, E.FULL_CONFIG)
    chopper = ChoppingExecutor(
        ctx, RuntimeHype(),
        lifecycle=LifecycleConfig(hedge_factor=3.0))
    queries = _stream_queries(ssb_db)
    first_pass = {}
    contexts = []

    def run_one(index, query, qctx, sink):
        done = chopper.submit(query.instantiate(), qctx)
        try:
            result = yield done
        except (QueryCancelled, Interrupted):
            return
        finally:
            if qctx is not None:
                qctx.finish()
        sink[index] = tuple(result.payload.row_tuples())

    for index, query in enumerate(queries):
        qctx = None
        if index < prefix:
            qctx = QueryContext(env, query.name, metrics=ctx.metrics)
            contexts.append(qctx)
        env.process(run_one(index, query, qctx, first_pass))

    def cancel_prefix():
        yield env.timeout(cancel_at)
        for qctx in contexts:
            qctx.cancel("test")

    env.process(cancel_prefix())
    env.run()

    # whatever survived pass 1 is already byte-identical
    for index, rows in first_pass.items():
        assert rows == expected[index]

    # pass 2 in the SAME simulation: every query, uncancelled
    second_pass = {}
    for index, query in enumerate(queries):
        env.process(run_one(index, query, None, second_pass))
    env.run()
    assert sorted(second_pass) == list(range(len(queries)))
    for index, rows in second_pass.items():
        assert rows == expected[index]
    assert hw.gpu_heap.used == 0
