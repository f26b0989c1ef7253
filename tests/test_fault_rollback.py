"""Heap-contention stress tests: device state must be fully rolled
back after mid-operator aborts.

Runs concurrent queries through the chopping executor against a
deliberately tiny GPU (heap contention → genuine OOM aborts) while
every injectable fault class fires at a high rate.  After the runs every device invariant must hold: the heap is
empty, no allocation leaked, every cache entry's refcount is back to
zero, and no processor still thinks it has active jobs — regardless of
where in the operator lifecycle the abort struck."""

from tests.conftest import make_context
from repro.core import ChoppingExecutor
from repro.core.placement import RuntimeHype
from repro.engine import Planner
from repro.engine.execution import execute_functional
from repro.faults import FaultConfig, FaultInjector
from repro.hardware import SystemConfig
from repro.hardware.calibration import MIB
from repro.sql import bind


JOIN_SQL = (
    "select region, sum(amount) as s from sales, store "
    "where skey = id and amount < 40 group by region order by s desc"
)

#: aggressive rates + a fast breaker so one short run exercises aborts
#: in every lifecycle stage and full breaker cycles
STRESS = FaultConfig.uniform(
    0.3, seed=17, breaker_threshold=2, breaker_open_seconds=0.005,
    max_retries=2, stall_seconds=0.002,
)


def make_faulty_context(database, fault_config, **config_kwargs):
    """make_context + fault injection installed *before* the execution
    context is built (so the resilience layer sees the config)."""
    from repro.engine.execution import ExecutionContext
    from repro.hardware import HardwareSystem
    from repro.sim import Environment

    defaults = dict(gpu_memory_bytes=5 * MIB, gpu_cache_bytes=4 * MIB)
    defaults.update(config_kwargs)
    env = Environment()
    hardware = HardwareSystem(env, SystemConfig(**defaults))
    injector = FaultInjector(fault_config, clock=lambda: env.now)
    hardware.install_faults(injector)
    ctx = ExecutionContext(hardware, database)
    return env, hardware, ctx


def assert_devices_rolled_back(hardware):
    """Every per-device invariant the abort protocol must restore."""
    for device in hardware.gpus:
        assert device.heap.used == 0, \
            "{}: {} heap bytes leaked".format(device.name, device.heap.used)
        assert device.heap.live_allocations == 0
        for key in device.cache.keys:
            assert device.cache.entry(key).refcount == 0, \
                "{}: cache entry {} still referenced".format(
                    device.name, key)
        assert device.processor.active_jobs == 0
    assert hardware.cpu.active_jobs == 0


def make_plan(db, name="q"):
    return Planner(db).plan(bind(JOIN_SQL, db, name=name))


def test_chopping_rolls_back_after_faulted_aborts(toy_db):
    expected = execute_functional(make_plan(toy_db), toy_db)
    env, hw, ctx = make_faulty_context(toy_db, STRESS)
    chopper = ChoppingExecutor(ctx, RuntimeHype(), cpu_workers=4,
                               gpu_workers=2)
    events = [chopper.submit(make_plan(toy_db, name="q{}".format(i)))
              for i in range(8)]
    env.run()
    assert all(event.triggered and event.ok for event in events)
    # the stress actually aborted mid-operator, and more than one
    # fault class struck
    assert hw.metrics.aborts > 0
    assert hw.injector.total_injected > 0
    for event in events:
        assert event.value.payload.row_tuples() \
            == expected.payload.row_tuples()
    assert_devices_rolled_back(hw)


def test_rollback_under_genuine_heap_contention_plus_faults(toy_db):
    """OOM aborts (the paper's fault) and injected transient faults
    interleave: a barely-fitting heap plus every fault class at once."""
    env, hw, ctx = make_faulty_context(
        toy_db, STRESS, gpu_memory_bytes=2 * MIB, gpu_cache_bytes=1 * MIB,
    )
    chopper = ChoppingExecutor(ctx, RuntimeHype(), cpu_workers=4,
                               gpu_workers=4)
    events = [chopper.submit(make_plan(toy_db, name="q{}".format(i)))
              for i in range(10)]
    env.run()
    assert all(event.triggered and event.ok for event in events)
    assert hw.metrics.aborts > 0
    assert_devices_rolled_back(hw)
    # wasted time was attributed, never negative
    assert hw.metrics.wasted_seconds >= 0.0


def test_device_reset_flushes_cache_without_breaking_refcounts(toy_db):
    """A forced reset while an operator holds cache entries defers the
    eviction of in-use entries to their final release."""
    from repro.hardware import HardwareSystem
    from repro.sim import Environment

    env = Environment()
    hw = HardwareSystem(env, SystemConfig(gpu_memory_bytes=64 * MIB,
                                          gpu_cache_bytes=16 * MIB))
    cache = hw.gpu_cache
    cache.admit("held", 1024)
    cache.admit("idle", 2048)
    cache.acquire("held")
    cache.reset()
    # the idle entry is gone at once; the held one survives the reset
    assert "idle" not in cache
    assert "held" in cache
    assert cache.entry("held").refcount == 1
    # ... until its holder lets go
    cache.release("held")
    assert "held" not in cache


def test_breaker_routes_to_cpu_while_open(toy_db):
    """With a permanently failing GPU every query still answers, via
    the CPU, and the breaker records the open."""
    expected = execute_functional(make_plan(toy_db), toy_db)
    env, hw, ctx = make_faulty_context(
        toy_db,
        FaultConfig(kernel=1.0, seed=5, breaker_threshold=1,
                    breaker_open_seconds=1e9, max_retries=1),
        gpu_memory_bytes=64 * MIB, gpu_cache_bytes=16 * MIB,
    )
    chopper = ChoppingExecutor(ctx, RuntimeHype())
    events = [chopper.submit(make_plan(toy_db, name="q{}".format(i)))
              for i in range(4)]
    env.run()
    for event in events:
        assert event.value.payload.row_tuples() \
            == expected.payload.row_tuples()
    states = ctx.resilience.breaker_states()
    assert any(state == "open" for state in states.values())
    assert_devices_rolled_back(hw)
