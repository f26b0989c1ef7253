"""Unit tests for the PCIe link and processor models."""

import random

import pytest

from repro.hardware import CopyEngine, PCIeBus, Processor, ProcessorKind
from repro.hardware.errors import DeviceReset, DeviceStall, KernelLaunchFault
from repro.hardware.processor import _Job
from repro.hardware.calibration import COGADB_PROFILE, OCELOT_PROFILE, GIB
from repro.hardware.system import HardwareSystem, SystemConfig
from repro.metrics import MetricsCollector
from repro.sim import Environment, Event, Interrupted


#: both constructors take (env, bandwidth, latency_seconds=, metrics=)
TOPOLOGIES = {"serialized": PCIeBus, "async": CopyEngine}


def both_topologies(check):
    """Run ``check(make_link)`` once per link topology under one test
    id: these assertions hold whatever the topology.  (Not
    ``pytest.mark.parametrize``: the ids predate the merged link model
    and are pinned by the tier-1 floor list.)"""

    def test():
        for topology, make_link in TOPOLOGIES.items():
            print("link topology:", topology)  # shown when a check fails
            check(make_link)

    test.__name__ = check.__name__
    test.__doc__ = check.__doc__
    return test


@both_topologies
def test_transfer_time_formula(make_link):
    env = Environment()
    bus = make_link(env, 1000.0, latency_seconds=0.5)
    assert bus.transfer_time(2000) == pytest.approx(0.5 + 2.0)


@both_topologies
def test_transfer_advances_clock_and_records_metrics(make_link):
    """Only wire time is charged to the transfer counters."""
    env = Environment()
    metrics = MetricsCollector()
    bus = make_link(env, 1000.0, metrics=metrics)

    def proc():
        yield from bus.transfer(500, "h2d")
        yield from bus.transfer(250, "d2h")

    env.process(proc())
    env.run()
    assert env.now == pytest.approx(0.75)
    assert metrics.cpu_to_gpu_bytes == 500
    assert metrics.gpu_to_cpu_bytes == 250
    assert metrics.cpu_to_gpu_seconds == pytest.approx(0.5)
    assert metrics.gpu_to_cpu_seconds == pytest.approx(0.25)


@both_topologies
def test_concurrent_transfers_serialize_on_the_bus(make_link):
    env = Environment()
    metrics = MetricsCollector()
    bus = make_link(env, 1000.0, metrics=metrics)
    ends = []

    def mover(name):
        yield from bus.transfer(1000, "h2d", device="gpu")
        ends.append((name, env.now))

    env.process(mover("a"))
    env.process(mover("b"))
    env.run()
    # Each transfer takes 1s of wire time; the second waits for the
    # first (FIFO), and its wait is queueing, not copy time.
    assert ends == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]
    assert metrics.cpu_to_gpu_seconds == pytest.approx(2.0)
    assert metrics.h2d_queue_seconds == pytest.approx(1.0)


def test_serialized_link_shares_one_channel_across_directions_and_devices():
    env = Environment()
    bus = PCIeBus(env, 1000.0)
    ends = {}

    def mover(direction, device):
        yield from bus.transfer(1000, direction, device=device)
        ends[(direction, device)] = env.now

    env.process(mover("h2d", "gpu"))
    env.process(mover("d2h", "gpu2"))
    env.run()
    assert ends == {("h2d", "gpu"): pytest.approx(1.0),
                    ("d2h", "gpu2"): pytest.approx(2.0)}


@both_topologies
def test_zero_byte_transfer_is_free(make_link):
    env = Environment()
    metrics = MetricsCollector()
    bus = make_link(env, 1000.0, metrics=metrics)

    def proc():
        yield from bus.transfer(0, "h2d")

    env.process(proc())
    env.run()
    assert env.now == 0.0
    assert metrics.cpu_to_gpu_bytes == 0


@both_topologies
def test_bad_direction_rejected(make_link):
    bus = make_link(Environment(), 1000.0)
    with pytest.raises(ValueError):
        list(bus.transfer(10, "sideways"))


@both_topologies
def test_negative_volume_rejected(make_link):
    bus = make_link(Environment(), 1000.0)
    with pytest.raises(ValueError):
        list(bus.transfer(-1, "h2d"))


def test_cancelled_serialized_copy_books_its_burned_wire_time():
    """A copy interrupted half-way burned real bus time: the elapsed
    seconds and the bytes that landed stay on the books, the channel is
    released, and the queued next transfer proceeds."""
    env = Environment()
    metrics = MetricsCollector()
    bus = PCIeBus(env, 1000.0, metrics=metrics)
    ends = {}

    def victim():
        try:
            yield from bus.transfer(1000, "h2d", device="gpu")
        except Interrupted:
            ends["victim"] = env.now

    def follower():
        yield from bus.transfer(500, "d2h", device="gpu")
        ends["follower"] = env.now

    def canceller(process):
        yield env.timeout(0.5)
        process.interrupt()

    victim_process = env.process(victim())
    env.process(follower())
    env.process(canceller(victim_process))
    env.run()
    assert ends["victim"] == pytest.approx(0.5)
    assert metrics.cpu_to_gpu_seconds == pytest.approx(0.5)
    assert metrics.cpu_to_gpu_bytes == 500
    # the channel was released at the interrupt: the follower waited
    # 0.5s, then took its own 0.5s of wire time
    assert bus.queue_length == 0
    assert ends["follower"] == pytest.approx(1.0)
    assert metrics.d2h_queue_seconds == pytest.approx(0.5)
    assert metrics.gpu_to_cpu_seconds == pytest.approx(0.5)


def test_processor_executes_and_records():
    env = Environment()
    metrics = MetricsCollector()
    cpu = Processor(env, "cpu", ProcessorKind.CPU, metrics=metrics)

    def proc():
        yield from cpu.execute(2.0)

    env.process(proc())
    env.run()
    assert env.now == 2.0
    assert metrics.operators_per_processor["cpu"] == 1
    assert metrics.busy_seconds["cpu"] == pytest.approx(2.0)


def test_processor_fair_sharing_two_equal_jobs():
    env = Environment()
    gpu = Processor(env, "gpu", ProcessorKind.GPU)
    ends = []

    def op(name):
        yield from gpu.execute(1.0)
        ends.append((name, env.now))

    env.process(op("a"))
    env.process(op("b"))
    env.run()
    # Two concurrent 1s jobs share the device: both finish at 2s.
    assert ends == [("a", pytest.approx(2.0)), ("b", pytest.approx(2.0))]


def test_processor_fair_sharing_staggered_arrivals():
    env = Environment()
    cpu = Processor(env, "cpu", ProcessorKind.CPU)
    ends = {}

    def first():
        yield from cpu.execute(2.0)
        ends["first"] = env.now

    def second():
        yield env.timeout(1.0)
        yield from cpu.execute(2.0)
        ends["second"] = env.now

    env.process(first())
    env.process(second())
    env.run()
    # first runs alone for 1s (1s of work done), then shares: the
    # remaining 1s takes 2s -> finishes at 3s.  second then runs its
    # remaining 1s alone -> finishes at 4s.
    assert ends["first"] == pytest.approx(3.0)
    assert ends["second"] == pytest.approx(4.0)


def test_processor_total_throughput_independent_of_concurrency():
    """A fixed amount of work finishes at the same time regardless of
    how many operators carry it (the paper's 'ideal system')."""
    for n_jobs in (1, 2, 5, 10):
        env = Environment()
        cpu = Processor(env, "cpu", ProcessorKind.CPU)
        for _ in range(n_jobs):
            env.process(cpu.execute(10.0 / n_jobs))
        env.run()
        assert env.now == pytest.approx(10.0)


def test_processor_zero_work_completes_immediately():
    env = Environment()
    cpu = Processor(env, "cpu", ProcessorKind.CPU)
    done = []

    def op():
        yield cpu.submit(0.0)
        done.append(env.now)

    env.process(op())
    env.run()
    assert done == [0.0]
    assert cpu.active_jobs == 0


def test_processor_estimated_drain():
    env = Environment()
    cpu = Processor(env, "cpu", ProcessorKind.CPU)
    cpu.submit(3.0)
    cpu.submit(1.0)
    assert cpu.estimated_drain_seconds() == pytest.approx(4.0)


# -- the processor-sharing queue, bit for bit ----------------------------
#
# The processor as it was first written: every state change walks the
# job table in ``_advance`` and again in ``min()``, arms a fresh timer
# with a closure and a generation number, and lets superseded timers
# fire into a generation check.  ``Processor`` does the same arithmetic
# in one pass and keeps one live timer; this stays here as the reference
# it is checked against: same floats, same order, same ``schedule``
# calls.

class GenerationProcessor(Processor):
    def __init__(self, env, name, kind, metrics=None):
        super().__init__(env, name, kind, metrics)
        self._timer_generation = 0

    def submit(self, seconds):
        if seconds < 0:
            raise ValueError("negative execution time")
        injector = self.injector
        if (injector is not None and seconds > 0
                and self.kind is ProcessorKind.GPU):
            if injector.roll("reset", self.name):
                if self.on_reset is not None:
                    self.on_reset()
                raise DeviceReset(device=self.name)
            if injector.roll("kernel", self.name):
                raise KernelLaunchFault(device=self.name)
            if injector.roll("stall", self.name):
                stall = injector.config.stall_seconds
                event = Event(self.env)
                fault = DeviceStall(stall, device=self.name)
                timer = self.env.timeout(stall)
                timer.callbacks.append(lambda _evt: event.fail(fault))
                return event
        self._advance()
        event = Event(self.env)
        if seconds == 0:
            event.succeed()
            return event
        self._next_job_id += 1
        self._jobs[self._next_job_id] = _Job(seconds, event)
        self._reschedule()
        return event

    def estimated_drain_seconds(self):
        self._advance()
        return sum(job.remaining for job in self._jobs.values())

    def _advance(self):
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._jobs:
            return
        share = elapsed / len(self._jobs)
        for job in self._jobs.values():
            job.remaining -= share

    def _reschedule(self):
        self._timer_generation += 1
        if not self._jobs:
            return
        generation = self._timer_generation
        shortest = min(job.remaining for job in self._jobs.values())
        delay = max(shortest, 0.0) * len(self._jobs)
        timer = self.env.timeout(delay)
        timer.callbacks.append(lambda _evt: self._on_timer(generation))

    def _on_timer(self, generation):
        if generation != self._timer_generation:
            return  # stale timer: the job set changed since it was armed
        self._advance()
        finished = [
            job_id
            for job_id, job in self._jobs.items()
            if job.remaining <= self.EPSILON
        ]
        for job_id in finished:
            job = self._jobs.pop(job_id)
            job.event.succeed()
        self._reschedule()


class CheckedProcessor(Processor):
    """The processor under test; every timer that reaches ``_on_timer``
    must be the live one (a cancelled timer has no callback left)."""

    timer_calls = 0

    def _on_timer(self, timer):
        assert timer is self._timer
        self.timer_calls += 1
        super()._on_timer(timer)


class CountingEnvironment(Environment):
    __slots__ = ("scheduled",)

    def __init__(self):
        super().__init__()
        self.scheduled = 0

    def schedule(self, event, priority=1, delay=0.0):
        self.scheduled += 1
        super().schedule(event, priority, delay)


class SeededStalls:
    """Fault injector double: never resets or rejects, stalls a seeded
    share of the launches."""

    class config:
        stall_seconds = 0.375

    def __init__(self, seed, rate):
        self.rng = random.Random(seed)
        self.rate = rate

    def roll(self, kind, site):
        return kind == "stall" and self.rng.random() < self.rate


def random_schedule(seed):
    """A seeded script of submissions and drain probes.  Start times
    come from a coarse grid (several submissions in one instant),
    durations repeat (simultaneous completions) and include zero and
    values around ``Processor.EPSILON``."""
    rng = random.Random(seed)
    grid = [0.0, 0.0, 0.125, 0.25, 0.5, 1.0, rng.uniform(0.0, 2.0)]
    durations = [0.0, 1e-13, 3e-12, 0.25, 0.25, 1.0,
                 rng.uniform(1e-6, 3.0), rng.uniform(1e-6, 3.0)]
    jobs = []
    for _ in range(rng.randint(1, 12)):
        jobs.append((
            rng.choice(grid) + rng.choice((0.0, 0.0, rng.uniform(0, 1))),
            rng.choice(durations),
            # second kernel half: none, from the resumed process, or
            # straight from the completion callback
            rng.choice(("none", "process", "process", "callback")),
            rng.choice(durations),
        ))
    probes = sorted(rng.choice(grid) + rng.uniform(0.0, 4.0)
                    for _ in range(rng.randint(0, 6)))
    stall_rate = rng.choice((0.0, 0.0, 0.2))
    return jobs, probes, stall_rate


def drive(make_processor, schedule, seed):
    """Run ``schedule`` on a fresh environment; returns everything
    observable: the log of (what, who, when / value) in occurrence
    order, the number of ``schedule`` calls, and the processor."""
    jobs, probes, stall_rate = schedule
    env = CountingEnvironment()
    kind = ProcessorKind.GPU if stall_rate else ProcessorKind.CPU
    processor = make_processor(env, "dev", kind)
    if stall_rate:
        processor.injector = SeededStalls(seed, stall_rate)
    log = []

    def submit(name, seconds):
        try:
            yield processor.submit(seconds)
            log.append(("done", name, env.now))
        except DeviceStall:
            log.append(("stalled", name, env.now))

    def job(index, start, first, second_mode, second):
        yield env.timeout(start)
        if second_mode == "callback":
            event = processor.submit(first)
            event.callbacks.append(
                lambda _evt: env.process(submit((index, "b"), second)))
            try:
                yield event
                log.append(("done", (index, "a"), env.now))
            except DeviceStall:
                log.append(("stalled", (index, "a"), env.now))
            return
        yield from submit((index, "a"), first)
        if second_mode == "process":
            yield from submit((index, "b"), second)

    def probe(index, when):
        yield env.timeout(when)
        log.append(("drain", index, processor.estimated_drain_seconds(),
                    processor.active_jobs))

    for index, spec in enumerate(jobs):
        env.process(job(index, *spec))
    for index, when in enumerate(probes):
        env.process(probe(index, when))
    env.run()
    return log, env.scheduled, env.now, processor


def test_processor_equals_the_generation_counter_oracle_bit_for_bit():
    shapes = set()
    for seed in range(300):
        schedule = random_schedule(seed)
        want_log, want_scheduled, want_end, oracle = drive(
            GenerationProcessor, schedule, seed)
        got_log, got_scheduled, got_end, processor = drive(
            CheckedProcessor, schedule, seed)
        # == on floats: completion times, drain estimates, the clock
        assert got_log == want_log, seed
        assert got_scheduled == want_scheduled, seed
        assert got_end == want_end, seed
        # fully drained: no job, no live timer
        assert processor.active_jobs == 0 and oracle.active_jobs == 0
        assert processor._timer is None
        # live timers only: one per pass that completed a job
        assert processor.timer_calls <= sum(
            1 for entry in got_log if entry[0] == "done")
        shapes.add((len(schedule[0]), bool(schedule[2])))
    # the sweep saw 1..12 concurrent jobs, with and without stalls
    assert {n for n, _ in shapes} == set(range(1, 13))
    assert {stalls for _, stalls in shapes} == {False, True}


def test_processor_cancels_the_superseded_timer_in_place():
    env = CountingEnvironment()
    cpu = CheckedProcessor(env, "cpu", ProcessorKind.CPU)
    cpu.submit(2.0)
    first = cpu._timer
    cpu.submit(1.0)
    assert cpu._timer is not first
    # cancelled, not removed: still scheduled (event ids break ties)
    assert first.callbacks == [] and not first.processed
    assert env.scheduled == 2
    env.run()
    assert first.processed
    assert cpu.timer_calls == 2  # one per completion, none for `first`
    assert env.now == 3.0 and cpu._timer is None and cpu.active_jobs == 0


def test_profile_gpu_faster_than_cpu_when_hot():
    for profile in (COGADB_PROFILE, OCELOT_PROFILE):
        for op_kind in ("selection", "join", "groupby", "sort"):
            assert profile.speedup(op_kind, 256 * 1024 * 1024) > 1.5, (
                profile.name,
                op_kind,
            )


def test_profile_selection_footprint_matches_paper():
    column = 218 * 1024 * 1024
    footprint = COGADB_PROFILE.footprint_bytes("selection", column)
    assert footprint == int(3.25 * column)


def test_cold_transfer_dominates_gpu_selection():
    """Paper Fig. 1: moving the input costs more than the GPU saves."""
    config = SystemConfig()
    column = 240 * 1024 * 1024
    gpu_time = COGADB_PROFILE.compute_seconds("selection", ProcessorKind.GPU, column)
    cpu_time = COGADB_PROFILE.compute_seconds("selection", ProcessorKind.CPU, column)
    transfer = column / config.pcie_bandwidth_bytes_per_second
    assert gpu_time + transfer > cpu_time
    assert gpu_time * 5 < cpu_time


def test_system_config_heap_is_remainder():
    config = SystemConfig(gpu_memory_bytes=4 * GIB, gpu_cache_bytes=1 * GIB)
    assert config.gpu_heap_bytes == 3 * GIB


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(gpu_memory_bytes=1 * GIB, gpu_cache_bytes=2 * GIB)


def test_hardware_system_wiring():
    env = Environment()
    system = HardwareSystem(env, SystemConfig(gpu_cache_bytes=GIB))
    assert system.cpu.kind is ProcessorKind.CPU
    assert system.gpu.kind is ProcessorKind.GPU
    assert system.gpu_heap.capacity == system.config.gpu_heap_bytes
    assert system.gpu_cache.capacity == GIB
    assert system.processor("cpu") is system.cpu
    with pytest.raises(KeyError):
        system.processor("tpu")
    # cache clock is wired to the environment
    system.gpu_cache.admit("col", 10)
    assert system.gpu_cache.entry("col").inserted_at == env.now


def test_ablation_selection_footprint_factor_vs_contention():
    """The heap-contention breakeven n = M / (f * |C|) moves with the
    footprint factor f (3.25 for the paper's GPU selection): smaller
    footprints fit more parallel operators.  Also the programmatic
    example of a custom ``EngineProfile`` docs/calibration.md points
    at.  (``pytest -s`` prints the table EXPERIMENTS.md quotes.)"""
    import dataclasses

    from repro.hardware.calibration import FOOTPRINT_FACTORS, EngineProfile
    from repro.harness import experiments as E
    from repro.harness import run_workload
    from repro.harness.tables import ExperimentResult
    from repro.workloads import micro

    database = E.ssb_database(10)
    queries = micro.parallel_selection_workload(database)
    result = ExperimentResult(
        "Ablation: selection footprint factor vs. contention")
    for factor in (1.0, 2.0, 3.25, 5.0):
        profile = EngineProfile(
            name="cogadb-f{}".format(factor), costs=COGADB_PROFILE.costs,
            footprint_factors=dict(FOOTPRINT_FACTORS, selection=factor))
        run = run_workload(
            database, queries, "gpu_only", users=10, repetitions=60,
            config=dataclasses.replace(E.MICRO_CONFIG, profile=profile))
        result.add(factor=factor, seconds=run.seconds,
                   aborts=run.metrics.aborts)
    print()
    result.print()
    aborts = {row["factor"]: row["aborts"] for row in result.rows}
    assert aborts[1.0] <= aborts[5.0]
