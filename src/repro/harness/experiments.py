"""The sweeps that measure the paper's evaluation.

A sweep is an ordinary function ``kwargs -> ExperimentResult``: it
states its measurement grid as a list of points, turns each point into
a declarative :class:`~repro.harness.parallel.Cell` and tabulates the
outcomes through one loop (:func:`_tabulate`) — sequentially by default,
or fanned out over worker processes with ``jobs=N`` (``--jobs`` on the
CLI, ``REPRO_JOBS`` in the environment).  Point order fixes row order,
so the tables are identical for any worker count.  Which sweep, which
arguments and which title make a *figure* of the paper — and what the
paper claims about it — is declared once, in
:mod:`repro.harness.figures`; the defaults here are every sweep's
full-size grid (seconds, not minutes, at ``DATA_SCALE``).

The micro-benchmark platform follows Sec. 2.3/3.4: a device where
roughly 5 GiB of heap are available, so that with the 3.25x selection
footprint about seven parallel queries fit.  The full-workload
platform is the paper's GTX 770 (4 GiB device memory).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.engine import caches
from repro.hardware import SystemConfig
from repro.hardware.calibration import COGADB_PROFILE, GIB, OCELOT_PROFILE
from repro.harness.parallel import (
    Cell,
    CellOutcome,
    clear_workload_cache,
    run_cells,
)
from repro.harness.tables import ExperimentResult
from repro.storage import Database
from repro.workloads import ssb, tpch

#: Default reduction of actual vs. nominal data (see DESIGN.md §2).
DATA_SCALE = 1e-4

#: Full-workload platform: the paper's GTX 770 (4 GiB device memory),
#: 1.5 GiB of it used as column cache, the rest as operator heap.
FULL_CONFIG = SystemConfig(
    gpu_memory_bytes=4 * GIB, gpu_cache_bytes=int(1.5 * GIB)
)

#: Micro-benchmark platform (Sec. 3.4 assumes ~5 GB of device heap).
MICRO_CONFIG = SystemConfig(
    gpu_memory_bytes=int(5.75 * GIB), gpu_cache_bytes=int(0.5 * GIB)
)


@functools.lru_cache(maxsize=8)
def ssb_database(scale_factor: float, data_scale: float = DATA_SCALE) -> Database:
    """Cached SSB database (deterministic)."""
    return ssb.generate(scale_factor, data_scale=data_scale)


@functools.lru_cache(maxsize=8)
def tpch_database(scale_factor: float, data_scale: float = DATA_SCALE) -> Database:
    """Cached TPC-H database (deterministic)."""
    return tpch.generate(scale_factor, data_scale=data_scale)


def clear_database_caches() -> None:
    """Drop every cached database, workload, and memoised plan result.

    Up to 8 full databases per generator can accumulate in a process
    (16 with the per-cell workload cache on top); long pytest sessions
    and pooled worker processes call this between phases to keep the
    footprint flat.
    """
    ssb_database.cache_clear()
    tpch_database.cache_clear()
    clear_workload_cache()
    # Registry-wide: plan cache, kernel cache (join indexes, lookups,
    # bounds), and anything registered later.
    caches.invalidate_all()


# -- the one loop: grid points -> Cells -> run_cells -> rows ----------------

#: column name -> how a cell's outcome fills it
COLUMNS: Dict[str, Callable[[CellOutcome], object]] = {
    "seconds": lambda o: o.metrics.workload_seconds,
    "h2d_seconds": lambda o: o.metrics.cpu_to_gpu_seconds,
    "d2h_seconds": lambda o: o.metrics.gpu_to_cpu_seconds,
    "cache_hit_rate": lambda o: o.metrics.cache_hit_rate,
    "aborts": lambda o: o.metrics.aborts,
    "wasted_seconds": lambda o: o.metrics.wasted_seconds,
    "footprint_gib": lambda o: o.footprint_bytes / GIB,
    "exceeds_cache": lambda o: (
        o.footprint_bytes > FULL_CONFIG.gpu_cache_bytes),
    "gpu_operators": lambda o: sum(
        count for name, count in o.metrics.operators_per_processor.items()
        if name != "cpu"),
    # fault injection (chaos_sweep)
    "faults_injected": lambda o: o.faults_injected,
    "retries": lambda o: o.metrics.retries,
    "breaker_opens": lambda o: _breaker_transitions(o, "open"),
    "breaker_half_opens": lambda o: _breaker_transitions(o, "half_open"),
    "breaker_closes": lambda o: _breaker_transitions(o, "closed"),
    "breaker_skips": lambda o: o.metrics.total("breaker_skips"),
    # copy engine (overlap_sweep)
    "queue_seconds": lambda o: o.metrics.transfer_queue_seconds,
    "overlap_ratio": lambda o: o.metrics.overlap_ratio,
    "coalesced": lambda o: o.metrics.coalesced_transfers,
    "prefetch_hits": lambda o: o.metrics.prefetch_hits,
    # query lifecycle (overload_sweep)
    "p50_latency": lambda o: o.metrics.latency_percentile(0.50),
    "p99_latency": lambda o: o.metrics.latency_percentile(0.99),
    "completed": lambda o: len(o.metrics.queries),
    "admission_waits": lambda o: o.metrics.total("admission_waits"),
    "admission_wait_seconds": lambda o: float(
        o.metrics.total("admission_wait_seconds")),
    "sheds": lambda o: o.metrics.total("sheds"),
    "degraded": lambda o: o.metrics.total("degraded"),
    "deadline_misses": lambda o: o.metrics.total("deadline_misses"),
    "cancelled": lambda o: len(o.metrics.cancelled_queries),
    "hedges": lambda o: o.metrics.total("hedges_started"),
    "hedge_wins": lambda o: o.metrics.total("hedge_races", won=True),
}


def _breaker_transitions(outcome: CellOutcome, state: str) -> int:
    return outcome.metrics.breaker_transition_counts().get(state, 0)


def _product(**axes: Iterable) -> List[dict]:
    """The grid points of ``axes``, first axis outermost."""
    return [dict(zip(axes, values))
            for values in itertools.product(*axes.values())]


def _measured(*columns: str) -> Callable[[dict, CellOutcome], List[dict]]:
    """One row per point: its labels, then ``columns`` of :data:`COLUMNS`."""
    return lambda point, outcome: [
        {**point, **{name: COLUMNS[name](outcome) for name in columns}}]


def _latencies(point: dict, outcome: CellOutcome) -> List[dict]:
    """One row per query of the point's workload: its mean latency."""
    return [{"query": name, **point, "seconds": latency}
            for name, latency in outcome.metrics.latencies_by_query().items()]


def _tabulate(title: str, points: List[dict], cell: Callable[..., Cell],
              rows: Callable[[dict, CellOutcome], List[dict]],
              jobs: Optional[int], notes: str = "") -> ExperimentResult:
    """Run ``cell(**point)`` for every grid point, in order, and
    tabulate ``rows(point, outcome)``: a point's keys are both the
    arguments of its cell and the label columns of its rows."""
    result = ExperimentResult(title, notes=notes)
    outcomes = run_cells([cell(**point) for point in points], jobs)
    for point, outcome in zip(points, outcomes):
        for row in rows(point, outcome):
            result.add(**row)
    return result


# -- the sweeps ---------------------------------------------------------------

def figure01(scale_factor: float = 20, repetitions: int = 5,
             jobs: Optional[int] = None) -> ExperimentResult:
    """CPU vs. GPU (cold cache) vs. GPU (hot cache) for SSB Q3.3."""
    cases = {"cpu": ("cpu_only", False),
             "gpu (cold cache)": ("gpu_only", False),
             "gpu (hot cache)": ("gpu_only", True)}
    return _tabulate(
        "SSB Q3.3 execution strategies", _product(strategy=cases),
        lambda strategy: Cell(
            workload="ssb", scale_factor=scale_factor,
            strategy=cases[strategy][0], config=FULL_CONFIG,
            repetitions=repetitions, warm_cache=cases[strategy][1],
            query_names=("Q3.3",)),
        lambda point, outcome: [dict(
            point, seconds=outcome.metrics.mean_latency("Q3.3"),
            h2d_seconds=outcome.metrics.cpu_to_gpu_seconds / repetitions)],
        jobs,
        notes="GPU with cold cache is slower than the CPU; hot cache wins.",
    )


def buffer_size_sweep(
    strategies: Sequence[str] = ("gpu_only", "data_driven"),
    buffer_gib: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 1.75, 2.0, 2.25, 2.5),
    scale_factor: float = 10, repetitions: int = 10,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """The cache-thrashing micro benchmark (Appendix B.1): the serial
    selection workload vs. the GPU buffer size.

    The working set is eight lineorder columns (1.9 GB at SF 10);
    operator-driven placement thrashes whenever the buffer is smaller.
    """
    return _tabulate(
        "Serial selection workload vs. GPU buffer size",
        _product(strategy=strategies, buffer_gib=buffer_gib),
        lambda strategy, buffer_gib: Cell(
            workload="micro_serial", scale_factor=scale_factor,
            strategy=strategy, repetitions=repetitions,
            config=SystemConfig(gpu_memory_bytes=4 * GIB,
                                gpu_cache_bytes=int(buffer_gib * GIB))),
        _measured("seconds", "h2d_seconds", "d2h_seconds", "cache_hit_rate",
                  "aborts"),
        jobs,
    )


def micro_users_sweep(
    strategies: Sequence[str] = ("gpu_only",),
    users: Sequence[int] = (1, 2, 4, 6, 7, 8, 10, 12, 16, 20),
    scale_factor: float = 10, total_queries: int = 100,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """The heap-contention micro benchmark (Appendix B.2): the parallel
    selection workload vs. the number of users.

    One query with a 744 MiB first-operator footprint; about seven fit
    the ~5 GiB heap, so contention sets in beyond that.
    """
    return _tabulate(
        "Parallel selection workload vs. #users",
        _product(strategy=strategies, users=users),
        lambda strategy, users: Cell(
            workload="micro_parallel", scale_factor=scale_factor,
            strategy=strategy, config=MICRO_CONFIG, users=users,
            repetitions=total_queries),
        _measured("seconds", "h2d_seconds", "d2h_seconds", "aborts",
                  "wasted_seconds"),
        jobs,
    )


def scale_factor_sweep(
    benchmark: str = "ssb",
    scale_factors: Sequence[float] = (5, 10, 15, 20, 30),
    strategies: Sequence[str] = (  # the strategy set of Sec. 6.2
        "cpu_only", "gpu_only", "critical_path", "data_driven", "chopping",
        "data_driven_chopping"),
    repetitions: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Workload time / transfer time / footprint vs. scale factor."""
    return _tabulate(
        "Scale factor sweep",
        _product(benchmark=(benchmark,), scale_factor=scale_factors,
                 strategy=strategies),
        lambda benchmark, scale_factor, strategy: Cell(
            workload=benchmark, scale_factor=scale_factor, strategy=strategy,
            config=FULL_CONFIG, repetitions=repetitions),
        _measured("seconds", "h2d_seconds", "d2h_seconds", "aborts",
                  "footprint_gib"),
        jobs,
    )


def figure16(
    benchmarks: Sequence[str] = ("ssb", "tpch"),
    scale_factors: Sequence[float] = (5, 10, 15, 20, 30),
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Workload memory footprint vs. scale factor (no execution)."""
    return _tabulate(
        "Memory footprint of the workloads",
        _product(benchmark=benchmarks, scale_factor=scale_factors),
        lambda benchmark, scale_factor: Cell(
            workload=benchmark, scale_factor=scale_factor,
            measure="footprint"),
        _measured("footprint_gib", "exceeds_cache"), jobs,
        notes="The GPU data cache is {} GiB.".format(
            FULL_CONFIG.gpu_cache_bytes / GIB),
    )


def query_latencies(
    benchmark: str = "ssb", scale_factor: float = 30,
    strategies: Sequence[str] = (
        "cpu_only", "gpu_only", "critical_path", "data_driven_chopping"),
    users: int = 1, repetitions: int = 3,
    query_names: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Mean per-query latency per strategy."""
    return _tabulate(
        "Per-query latencies", _product(strategy=strategies),
        lambda strategy: Cell(
            workload=benchmark, scale_factor=scale_factor, strategy=strategy,
            config=FULL_CONFIG, users=users, repetitions=repetitions,
            query_names=(tuple(query_names) if query_names is not None
                         else None)),
        _latencies, jobs,
    )


def figure25(
    users: Sequence[int] = (1, 5, 10, 20),
    strategies: Sequence[str] = (
        "gpu_only", "admission_control", "chopping", "data_driven_chopping"),
    scale_factor: float = 10, repetitions: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Latencies of all SSB queries for a varying number of users."""
    return _tabulate(
        "SSB query latencies vs. #users",
        _product(strategy=strategies, users=users),
        lambda strategy, users: Cell(
            workload="ssb", scale_factor=scale_factor, strategy=strategy,
            config=FULL_CONFIG, users=users, repetitions=repetitions),
        _latencies, jobs,
    )


def benchmark_users_sweep(
    benchmark: str = "ssb", scale_factor: float = 10,
    users: Sequence[int] = (1, 5, 10, 15, 20),
    strategies: Sequence[str] = (
        "gpu_only", "data_driven", "chopping", "data_driven_chopping"),
    repetitions: int = 3,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Workload time, transfer time, aborts and wasted time vs. #users."""
    return _tabulate(
        "User parallelism sweep",
        _product(benchmark=(benchmark,), strategy=strategies, users=users),
        lambda benchmark, strategy, users: Cell(
            workload=benchmark, scale_factor=scale_factor, strategy=strategy,
            config=FULL_CONFIG, users=users, repetitions=repetitions),
        _measured("seconds", "h2d_seconds", "d2h_seconds", "aborts",
                  "wasted_seconds"),
        jobs,
    )


def engine_comparison(benchmark: str, scale_factor: float = 10,
                      repetitions: int = 3,
                      jobs: Optional[int] = None) -> ExperimentResult:
    """Per-query CPU and GPU backend latencies for both engine profiles.

    Substitution (DESIGN.md §2): Ocelot is modelled as a second
    calibration profile on the same simulated hardware.
    """
    # The appendix explicitly measures raw query-processing power in a
    # configuration where neither cache thrashing nor heap contention
    # occurs — model that with a roomy device.
    roomy = SystemConfig(gpu_memory_bytes=8 * GIB, gpu_cache_bytes=5 * GIB)
    profiles = {profile.name: profile
                for profile in (COGADB_PROFILE, OCELOT_PROFILE)}
    return _tabulate(
        "Engine comparison",
        _product(engine=profiles, backend=("cpu", "gpu")),
        lambda engine, backend: Cell(
            workload=benchmark, scale_factor=scale_factor,
            strategy=backend + "_only", repetitions=repetitions,
            config=roomy.with_profile(profiles[engine])),
        _latencies, jobs,
        notes="Configuration without thrashing or contention (App. A): "
              "a device large enough to hold the working set.",
    )


def figure24(
    fractions: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    policies: Sequence[str] = ("lru", "lfu"),
    scale_factor: float = 10, repetitions: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """LFU vs. LRU: the SSB workload under Data-Driven with a varying
    cache fraction.

    The fraction scales a 3 GiB budget so at least 1 GiB of heap
    remains for operator intermediates.
    """
    return _tabulate(
        "LFU vs LRU data placement",
        _product(policy=policies, cache_fraction=fractions),
        lambda policy, cache_fraction: Cell(
            workload="ssb", scale_factor=scale_factor, strategy="data_driven",
            repetitions=repetitions, placement_policy=policy,
            config=SystemConfig(
                gpu_memory_bytes=4 * GIB,
                gpu_cache_bytes=int(cache_fraction * 3.0 * GIB))),
        _measured("seconds", "h2d_seconds"), jobs,
    )


def multi_gpu_scaling(
    benchmark: str = "ssb", scale_factor: float = 30,
    gpu_counts: Sequence[int] = (1, 2, 4),
    strategies: Sequence[str] = ("data_driven_chopping", "chopping"),
    users: int = 10, repetitions: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Extension: scale-up with several co-processors.

    Sec. 6.3: "it is common to use multiple GPUs in a single machine,
    which can handle larger databases and more parallel users...  Our
    Data-Driven strategy can support multiple co-processors by
    performing horizontal partitioning."  The placement manager
    partitions the hot columns across the devices; data-driven chopping
    sends each operator to the device holding its inputs.
    """
    return _tabulate(
        "Multi-GPU scale-up", _product(strategy=strategies, gpus=gpu_counts),
        lambda strategy, gpus: Cell(
            workload=benchmark, scale_factor=scale_factor, strategy=strategy,
            config=replace(FULL_CONFIG, gpu_count=gpus), users=users,
            repetitions=repetitions),
        _measured("seconds", "h2d_seconds", "aborts", "gpu_operators"), jobs,
    )


def chaos_sweep(
    fault_rates: Sequence[float] = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2),
    strategy: str = "runtime", scale_factor: float = 10, users: int = 2,
    repetitions: int = 2, seed: int = 7,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Degradation curve: SSB makespan vs. injected fault rate.

    Every cell runs with ``validate=True`` — the correctness gate:
    faults cost time, never answers.  The final row is the CPU-only
    configuration (no fault rate), the asymptote a co-processor system
    degrades towards as its devices become unusable; graceful
    degradation means the faulted makespans stay bounded by (about)
    that floor instead of diverging or crashing.
    """
    from repro.faults import FaultConfig

    return _tabulate(
        "SSB under injected faults",
        _product(strategy=(strategy,), fault_rate=fault_rates)
        + [dict(strategy="cpu_only", fault_rate=float("nan"))],
        lambda strategy, fault_rate: Cell(
            workload="ssb", scale_factor=scale_factor, strategy=strategy,
            config=FULL_CONFIG, users=users, repetitions=repetitions,
            faults=(FaultConfig.uniform(fault_rate, seed=seed)
                    if fault_rate > 0 else None),
            validate=True),
        _measured("seconds", "faults_injected", "retries", "aborts",
                  "breaker_opens", "breaker_half_opens", "breaker_closes",
                  "breaker_skips", "wasted_seconds"),
        jobs,
        notes="results validated at every rate; cpu_only row is the "
              "degradation asymptote",
    )


def overlap_sweep(
    benchmark: str = "ssb", scale_factor: float = 10,
    users: Sequence[int] = (1, 2, 4, 8),
    gpu_count: int = 2, strategy: str = "runtime", repetitions: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Transfer-bound sweep: serialized bus vs. asynchronous copy engine.

    Every cell starts cold (``warm_cache=False``) so staging traffic
    dominates, the shape of Figs. 6/15 where the bus is the bottleneck.
    Each user count runs twice — once on the paper-faithful serialized
    single-channel bus, once with the copy engine's per-device duplex
    channels, coalescing, and placement-driven prefetch — and the table
    reports the speedup together with the bus-accounting counters
    (queueing delay, overlap ratio, coalesce and prefetch-hit counts).
    """
    serialized_seconds = {}
    counters = _measured("h2d_seconds", "queue_seconds", "overlap_ratio",
                         "coalesced", "prefetch_hits")

    def rows(point, outcome):
        seconds = outcome.metrics.workload_seconds
        # the serialized-bus cell of a user count precedes its engine cell
        baseline = serialized_seconds.setdefault(point["users"], seconds)
        speedup = baseline / seconds if seconds else float("nan")
        return counters(dict(point, seconds=seconds, speedup=speedup),
                        outcome)

    return _tabulate(
        "Copy-engine overlap sweep",
        _product(users=users, copy_engine=(False, True)),
        lambda users, copy_engine: Cell(
            workload=benchmark, scale_factor=scale_factor, strategy=strategy,
            config=replace(FULL_CONFIG, gpu_count=gpu_count,
                           copy_engine=copy_engine),
            users=users, repetitions=repetitions, warm_cache=False),
        rows, jobs,
    )


def overload_sweep(
    loads: Sequence[int] = (1, 2, 4, 8),
    strategy: str = "chopping", scale_factor: float = 10,
    repetitions: int = 2,
    max_inflight: int = 2, overload_policy: str = "queue",
    deadline_seconds: Optional[float] = None,
    hedge_factor: Optional[float] = 3.0,
    fault_rate: float = 0.02, seed: int = 7,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Overload sweep: tail latency with the query lifecycle off vs. on.

    Each load level (concurrent user sessions issuing the same fixed
    SSB workload) runs twice: once with the lifecycle layer off — the
    unbounded query stream the paper's executors accept — and once with
    admission control (``max_inflight``/``overload_policy``), optional
    per-query deadlines, and straggler hedging.  Faulted cells exercise
    the interplay with the fault-injection layer: retry storms create
    exactly the stragglers hedging is for.  Every cell validates its
    results, so the table doubles as the cancellation-correctness gate.
    """
    from repro.engine.execution import LifecycleConfig
    from repro.faults import FaultConfig

    lifecycle_on = LifecycleConfig(
        max_inflight=max_inflight, overload_policy=overload_policy,
        deadline_seconds=deadline_seconds, hedge_factor=hedge_factor)
    faults = (FaultConfig.uniform(fault_rate, seed=seed)
              if fault_rate > 0 else None)
    return _tabulate(
        "Overload sweep", _product(users=loads, lifecycle=("off", "on")),
        lambda users, lifecycle: Cell(
            workload="ssb", scale_factor=scale_factor, strategy=strategy,
            config=FULL_CONFIG, users=users, repetitions=repetitions,
            faults=faults, validate=True,
            lifecycle=lifecycle_on if lifecycle == "on" else None),
        _measured("seconds", "p50_latency", "p99_latency", "completed",
                  "admission_waits", "admission_wait_seconds", "sheds",
                  "degraded", "deadline_misses", "cancelled", "hedges",
                  "hedge_wins"),
        jobs,
        notes="results validated in every cell; 'lifecycle' toggles "
              "admission control, deadlines, and hedging",
    )
