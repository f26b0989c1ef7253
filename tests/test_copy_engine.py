"""Tests for the asynchronous copy engine and its integrations."""

import hashlib

import pytest

from tests.conftest import make_context
from repro.faults import FaultConfig, FaultInjector
from repro.hardware import (
    CopyEngine,
    HardwareSystem,
    PCIeTransferFault,
    SystemConfig,
)
from repro.metrics import MetricsCollector
from repro.sim import Environment
from repro.workloads import ssb


def make_engine(env, metrics=None, chunk_bytes=256, coalescing=True,
                bandwidth=1000.0):
    return CopyEngine(env, bandwidth_bytes_per_second=bandwidth,
                      latency_seconds=0.0, chunk_bytes=chunk_bytes,
                      coalescing=coalescing, metrics=metrics)


def pcie_injector(env, rate=1.0, seed=3):
    return FaultInjector(FaultConfig.parse("pcie={},seed={}".format(
        rate, seed)), clock=lambda: env.now)


# -- channels ---------------------------------------------------------------


def test_opposite_directions_run_full_duplex():
    env = Environment()
    engine = make_engine(env)
    ends = {}

    def mover(direction):
        yield from engine.transfer(1000, direction, device="gpu")
        ends[direction] = env.now

    env.process(mover("h2d"))
    env.process(mover("d2h"))
    env.run()
    # 1000 B at 1000 B/s each: duplex channels finish together at 1s,
    # where the serialized bus would take 2s
    assert ends["h2d"] == pytest.approx(1.0)
    assert ends["d2h"] == pytest.approx(1.0)


def test_same_direction_serializes_and_records_queueing():
    env = Environment()
    metrics = MetricsCollector()
    engine = make_engine(env, metrics)
    ends = []

    def mover():
        yield from engine.transfer(1000, "h2d", device="gpu")
        ends.append(env.now)

    env.process(mover())
    env.process(mover())
    env.run()
    assert ends == [pytest.approx(1.0), pytest.approx(2.0)]
    # wire time and queueing delay are separate books
    assert metrics.cpu_to_gpu_seconds == pytest.approx(2.0)
    assert metrics.transfer_queue_seconds == pytest.approx(1.0)
    assert metrics.h2d_queue_seconds == pytest.approx(1.0)


def test_devices_have_independent_channels():
    env = Environment()
    engine = make_engine(env)
    ends = {}

    def mover(device):
        yield from engine.transfer(1000, "h2d", device=device)
        ends[device] = env.now

    env.process(mover("gpu"))
    env.process(mover("gpu2"))
    env.run()
    assert ends["gpu"] == pytest.approx(1.0)
    assert ends["gpu2"] == pytest.approx(1.0)


def test_transfer_validation():
    env = Environment()
    engine = make_engine(env)
    with pytest.raises(ValueError):
        list(engine.transfer(-1, "h2d"))
    with pytest.raises(ValueError):
        list(engine.transfer(10, "sideways"))

    done = []

    def zero():
        yield from engine.transfer(0, "h2d", device="gpu")
        done.append(env.now)

    env.process(zero())
    env.run()
    assert done == [0.0]


# -- coalescing -------------------------------------------------------------


def test_concurrent_same_key_copies_coalesce():
    env = Environment()
    metrics = MetricsCollector()
    engine = make_engine(env, metrics)
    ends = []

    def mover():
        yield from engine.transfer(1000, "h2d", device="gpu", key="t.c0")
        ends.append(env.now)

    env.process(mover())
    env.process(mover())
    env.run()
    # the second rider attaches to the in-flight copy: both complete
    # with one copy's wire time on the books
    assert ends == [pytest.approx(1.0), pytest.approx(1.0)]
    assert metrics.coalesced_transfers == 1
    assert metrics.coalesced_bytes == 1000
    assert metrics.cpu_to_gpu_seconds == pytest.approx(1.0)
    assert metrics.cpu_to_gpu_bytes == 1000


def test_coalescing_disabled_queues_duplicate_copies():
    env = Environment()
    metrics = MetricsCollector()
    engine = make_engine(env, metrics, coalescing=False)
    ends = []

    def mover():
        yield from engine.transfer(1000, "h2d", device="gpu", key="t.c0")
        ends.append(env.now)

    env.process(mover())
    env.process(mover())
    env.run()
    assert ends == [pytest.approx(1.0), pytest.approx(2.0)]
    assert metrics.coalesced_transfers == 0
    assert metrics.cpu_to_gpu_seconds == pytest.approx(2.0)


def test_coalesced_waiter_observes_the_fault():
    env = Environment()
    engine = make_engine(env)
    engine.injector = pcie_injector(env)
    outcomes = []

    def mover():
        try:
            yield from engine.transfer(1000, "h2d", device="gpu",
                                       key="t.c0")
        except PCIeTransferFault as fault:
            outcomes.append(fault.fault_class)
        else:
            outcomes.append("ok")

    env.process(mover())
    env.process(mover())
    env.run()
    # one physical copy died; both the owner and the attached rider
    # observe the same fault and can retry independently
    assert outcomes == ["pcie", "pcie"]
    assert not engine.in_flight("gpu", "h2d", "t.c0")


# -- chunked faults ---------------------------------------------------------


def test_mid_chunk_fault_burns_partial_wire_time():
    env = Environment()
    metrics = MetricsCollector()
    engine = make_engine(env, metrics, chunk_bytes=256)
    engine.injector = pcie_injector(env)
    failed = []

    def mover():
        try:
            yield from engine.transfer(1024, "h2d", device="gpu")
        except PCIeTransferFault:
            failed.append(env.now)

    env.process(mover())
    env.run()
    assert len(failed) == 1
    burned = failed[0]
    assert 0.0 < burned < engine.transfer_time(1024)
    # the burned bus time stays on the books, and the bytes that
    # landed are whole chunks
    assert metrics.cpu_to_gpu_seconds == pytest.approx(burned)
    assert metrics.cpu_to_gpu_bytes % 256 == 0
    assert metrics.cpu_to_gpu_bytes < 1024


def test_fault_schedule_deterministic_across_runs():
    def one_run():
        env = Environment()
        metrics = MetricsCollector()
        engine = make_engine(env, metrics, chunk_bytes=256)
        engine.injector = pcie_injector(env, rate=0.5, seed=11)
        log = []

        def mover(index):
            try:
                yield from engine.transfer(512 + index, "h2d", device="gpu")
                log.append((index, "ok", env.now))
            except PCIeTransferFault:
                log.append((index, "pcie", env.now))

        for index in range(6):
            env.process(mover(index))
        env.run()
        digest = hashlib.sha256(repr(log).encode()).hexdigest()
        return digest, engine.injector.schedule_digest()

    assert one_run() == one_run()


# -- prefetch pump ----------------------------------------------------------


def test_prefetch_yields_channel_to_demand_at_chunk_boundary():
    env = Environment()
    engine = make_engine(env, chunk_bytes=100)  # 0.1s per chunk
    ends = {}

    def background():
        yield from engine.transfer(1000, "h2d", device="gpu",
                                   prefetch=True)
        ends["prefetch"] = env.now

    def demand():
        yield env.timeout(0.05)  # arrives mid-first-chunk
        yield from engine.transfer(100, "h2d", device="gpu")
        ends["demand"] = env.now

    env.process(background())
    env.process(demand())
    env.run()
    # the demand copy waits out the current chunk (until 0.1), runs for
    # 0.1, and never sits behind the prefetch's remaining 0.9s
    assert ends["demand"] == pytest.approx(0.2)
    # the preempted prefetch resumes afterwards and still completes
    assert ends["prefetch"] == pytest.approx(1.1)


def test_demand_pump_holds_channel_for_whole_copy():
    env = Environment()
    engine = make_engine(env, chunk_bytes=100)
    ends = {}

    def first():
        yield from engine.transfer(1000, "h2d", device="gpu")
        ends["first"] = env.now

    def second():
        yield env.timeout(0.05)
        yield from engine.transfer(100, "h2d", device="gpu")
        ends["second"] = env.now

    env.process(first())
    env.process(second())
    env.run()
    # demand copies are one DMA job: no preemption points
    assert ends["first"] == pytest.approx(1.0)
    assert ends["second"] == pytest.approx(1.1)


# -- system integration -----------------------------------------------------


def test_disabled_config_is_the_serialized_topology():
    """The default config promises the serialized link: one channel,
    whatever the endpoint or direction."""
    hardware = HardwareSystem(Environment(), SystemConfig(),
                              MetricsCollector())
    assert not hardware.bus.asynchronous
    assert (hardware.bus.channel("gpu", "h2d")
            is hardware.bus.channel(None, "d2h"))


def test_with_copy_engine_constructs_and_hooks_injector():
    env = Environment()
    config = SystemConfig().with_copy_engine(True, copy_chunk_bytes=1 << 20)
    hardware = HardwareSystem(env, config, MetricsCollector())
    assert hardware.bus.asynchronous
    assert hardware.bus.chunk_bytes == 1 << 20
    assert (hardware.bus.channel("gpu", "h2d")
            is not hardware.bus.channel("gpu", "d2h"))
    injector = pcie_injector(env)
    hardware.install_faults(injector)
    assert hardware.bus.injector is injector


def test_host_transfer_never_faults():
    env = Environment()
    config = SystemConfig().with_copy_engine(True)
    hardware = HardwareSystem(env, config, MetricsCollector())
    hardware.install_faults(pcie_injector(env))
    done = []

    def mover():
        yield from hardware.host_transfer(1 << 20, "d2h", device="gpu")
        done.append(env.now)

    env.process(mover())
    env.run()
    assert len(done) == 1


def _digest(results):
    payload = repr(sorted(
        (name, tuple(table.row_tuples())) for name, table in results.items()
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def overlap_db():
    return ssb.generate(scale_factor=0.5, data_scale=0.01, seed=99)


def _run(db, config, **kwargs):
    from repro.harness.runner import run_workload

    return run_workload(db, ssb.workload(db), "runtime", config=config,
                        users=2, warm_cache=False, collect_results=True,
                        **kwargs)


def test_engine_results_identical_to_baseline(overlap_db):
    config = SystemConfig()
    base = _run(overlap_db, config, validate=True)
    eng = _run(overlap_db, config.with_copy_engine(True), validate=True)
    assert _digest(base.results) == _digest(eng.results)
    assert eng.seconds <= base.seconds


def test_engine_knobs_inert_when_disabled(overlap_db):
    plain = _run(overlap_db, SystemConfig())
    knobs = _run(overlap_db, SystemConfig().with_copy_engine(
        False, copy_chunk_bytes=4096, copy_coalescing=False,
        prefetch_depth=0,
    ))
    assert plain.seconds == knobs.seconds
    assert _digest(plain.results) == _digest(knobs.results)
    # overlapped staging on the serialized link is still not "the engine"
    streaming = _run(overlap_db, SystemConfig(streaming_transfers=True))
    for run in (plain, knobs, streaming):
        metrics = run.metrics
        assert metrics.coalesced_transfers == 0
        assert metrics.prefetch_transfers == 0
        assert metrics.prefetch_hits == 0
        assert metrics.overlapped_transfer_seconds == 0.0


def test_engine_deterministic_under_faults(overlap_db):
    config = SystemConfig().with_copy_engine(True)
    spec = FaultConfig.uniform(0.05, seed=5)
    first = _run(overlap_db, config, faults=spec)
    second = _run(overlap_db, config, faults=spec)
    assert first.fault_digest == second.fault_digest
    assert first.seconds == second.seconds
    assert _digest(first.results) == _digest(second.results)


def test_overlap_counters_populated(overlap_db):
    eng = _run(overlap_db, SystemConfig().with_copy_engine(True))
    metrics = eng.metrics
    assert metrics.transfer_seconds > 0
    assert 0.0 <= metrics.overlap_ratio <= 1.0
    assert metrics.bus_utilization > 0.0


def test_overlap_beats_the_serialized_bus_on_the_transfer_bound_sweep():
    """The reason the engine exists (``repro figures overlap`` prints
    the sweep): cold cache, two co-processors, four users — the
    Fig. 6/15 shape where the bus is the bottleneck — and the async
    link's duplex channels, coalescing and prefetch buy >= 1.3x."""
    from repro.harness import experiments as E

    sweep = E.overlap_sweep(scale_factor=5, users=(4,), repetitions=1)
    serialized, engine = sweep.rows
    assert not serialized["copy_engine"] and engine["copy_engine"]
    assert engine["speedup"] >= 1.3
    assert engine["overlap_ratio"] > 0.0
    assert engine["coalesced"] > 0 and engine["prefetch_hits"] > 0
    assert serialized["overlap_ratio"] == 0.0
