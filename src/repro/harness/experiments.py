"""Per-figure experiment drivers.

Every figure of the paper's evaluation has a ``figureNN`` function here
returning an :class:`ExperimentResult` whose rows are the series the
paper plots.  The drivers accept scale knobs (repetitions, sweep
points) so the benchmark suite can trade fidelity for wall time; the
defaults are sized to finish in seconds while preserving the paper's
shapes.

Each driver describes its measurement grid as a list of declarative
:class:`~repro.harness.parallel.Cell` specs and executes them through
:func:`~repro.harness.parallel.run_cells` — sequentially by default, or
fanned out over worker processes with ``jobs=N`` (also settable
globally via ``--jobs`` on the CLI / ``REPRO_JOBS`` in the
environment).  Cell order fixes row order, so the printed tables are
identical for any worker count.

Setting ``REPRO_FAST=1`` shrinks every sweep grid (endpoints only,
single repetition) for CI smoke runs.

The micro-benchmark platform follows Sec. 2.3/3.4: a device where
roughly 5 GiB of heap are available, so that with the 3.25x selection
footprint about seven parallel queries fit.  The full-workload
platform is the paper's GTX 770 (4 GiB device memory).
"""

from __future__ import annotations

import functools
import os
from typing import Optional, Sequence, Tuple

from repro.engine import caches, kernels, plan_cache  # noqa: F401
from repro.hardware import SystemConfig
from repro.hardware.calibration import COGADB_PROFILE, GIB, OCELOT_PROFILE
from repro.harness.parallel import Cell, clear_workload_cache, run_cells
from repro.harness.tables import ExperimentResult
from repro.storage import Database
from repro.workloads import ssb, tpch

#: Default reduction of actual vs. nominal data (see DESIGN.md §2).
DATA_SCALE = 1e-4

#: Environment knob: shrink every grid for CI smoke runs.
FAST_ENV = "REPRO_FAST"

#: Full-workload platform: the paper's GTX 770 (4 GiB device memory),
#: 1.5 GiB of it used as column cache, the rest as operator heap.
FULL_CONFIG = SystemConfig(
    gpu_memory_bytes=4 * GIB, gpu_cache_bytes=int(1.5 * GIB)
)

#: Micro-benchmark platform (Sec. 3.4 assumes ~5 GB of device heap).
MICRO_CONFIG = SystemConfig(
    gpu_memory_bytes=int(5.75 * GIB), gpu_cache_bytes=int(0.5 * GIB)
)


def fast_mode() -> bool:
    """True when ``REPRO_FAST`` asks for shrunken smoke-test grids."""
    return os.environ.get(FAST_ENV, "") not in ("", "0")


def _grid(values: Sequence) -> Tuple:
    """A sweep axis, reduced to its endpoints under ``REPRO_FAST``."""
    values = tuple(values)
    if fast_mode() and len(values) > 2:
        return (values[0], values[-1])
    return values


def _reps(repetitions: int) -> int:
    """Repetition count, capped at 1 under ``REPRO_FAST``."""
    return 1 if fast_mode() else repetitions


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


# ---------------------------------------------------------------------------
# Figure 1 — query execution strategies on SSB Q3.3
# ---------------------------------------------------------------------------

def figure01(scale_factor: float = 20, repetitions: int = 5,
             jobs: Optional[int] = None) -> ExperimentResult:
    """CPU vs. GPU (cold cache) vs. GPU (hot cache) for SSB Q3.3."""
    repetitions = _reps(repetitions)
    result = ExperimentResult(
        "Figure 1: SSB Q3.3 execution strategies (SF {})".format(scale_factor),
        notes="GPU with cold cache is slower than the CPU; hot cache wins.",
    )
    cases = [
        ("cpu", "cpu_only", False),
        ("gpu (cold cache)", "gpu_only", False),
        ("gpu (hot cache)", "gpu_only", True),
    ]
    cells = [
        Cell(
            workload="ssb", scale_factor=scale_factor, strategy=strategy,
            config=FULL_CONFIG, repetitions=repetitions, warm_cache=warm,
            query_names=("Q3.3",),
        )
        for _, strategy, warm in cases
    ]
    for (label, _, _), outcome in zip(cases, run_cells(cells, jobs)):
        result.add(
            strategy=label,
            seconds=outcome.metrics.mean_latency("Q3.3"),
            h2d_seconds=outcome.metrics.cpu_to_gpu_seconds / repetitions,
        )
    return result


# ---------------------------------------------------------------------------
# Figures 2, 5, 6 — serial selection workload vs. GPU buffer size
# ---------------------------------------------------------------------------

def buffer_size_sweep(
    strategies: Sequence[str] = ("gpu_only", "data_driven"),
    buffer_gib: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 1.75, 2.0, 2.25, 2.5),
    scale_factor: float = 10,
    repetitions: int = 10,
    title: str = "Serial selection workload vs. GPU buffer size",
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """The cache-thrashing micro benchmark (Appendix B.1).

    The working set is eight lineorder columns (1.9 GB at SF 10);
    operator-driven placement thrashes whenever the buffer is smaller.
    """
    buffer_gib = _grid(buffer_gib)
    repetitions = _reps(repetitions)
    grid = [(strategy, gib) for strategy in strategies for gib in buffer_gib]
    cells = [
        Cell(
            workload="micro_serial", scale_factor=scale_factor,
            strategy=strategy,
            config=SystemConfig(
                gpu_memory_bytes=4 * GIB,
                gpu_cache_bytes=int(gib * GIB),
            ),
            repetitions=repetitions,
        )
        for strategy, gib in grid
    ]
    result = ExperimentResult(title)
    for (strategy, gib), outcome in zip(grid, run_cells(cells, jobs)):
        result.add(
            strategy=strategy,
            buffer_gib=gib,
            seconds=outcome.metrics.workload_seconds,
            h2d_seconds=outcome.metrics.cpu_to_gpu_seconds,
            d2h_seconds=outcome.metrics.gpu_to_cpu_seconds,
            cache_hit_rate=outcome.metrics.cache_hit_rate,
            aborts=outcome.metrics.aborts,
        )
    return result


def figure02(**kwargs) -> ExperimentResult:
    """Cache thrashing: operator-driven placement only (Fig. 2)."""
    kwargs.setdefault("strategies", ("gpu_only",))
    kwargs.setdefault(
        "title",
        "Figure 2: selection workload, operator-driven placement "
        "(cache thrashing)",
    )
    return buffer_size_sweep(**kwargs)


def figure05(**kwargs) -> ExperimentResult:
    """Data-driven placement avoids the degradation (Fig. 5)."""
    kwargs.setdefault("strategies", ("gpu_only", "data_driven"))
    kwargs.setdefault(
        "title", "Figure 5: selection workload, data-driven vs operator-driven"
    )
    return buffer_size_sweep(**kwargs)


def figure06(**kwargs) -> ExperimentResult:
    """Transfer time view of the same sweep (Fig. 6)."""
    kwargs.setdefault(
        "title", "Figure 6: data transfer time in the selection workload"
    )
    return buffer_size_sweep(**kwargs)


# ---------------------------------------------------------------------------
# Figures 3, 7, 9, 12, 13 — parallel selection workload vs. #users
# ---------------------------------------------------------------------------

def micro_users_sweep(
    strategies: Sequence[str] = ("gpu_only",),
    users: Sequence[int] = (1, 2, 4, 6, 7, 8, 10, 12, 16, 20),
    scale_factor: float = 10,
    total_queries: int = 100,
    title: str = "Parallel selection workload vs. #users",
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """The heap-contention micro benchmark (Appendix B.2).

    One query with a 744 MiB first-operator footprint; about seven fit
    the ~5 GiB heap, so contention sets in beyond that.
    """
    users = _grid(users)
    if fast_mode():
        total_queries = min(total_queries, 30)
    grid = [(strategy, n_users) for strategy in strategies for n_users in users]
    cells = [
        Cell(
            workload="micro_parallel", scale_factor=scale_factor,
            strategy=strategy, config=MICRO_CONFIG,
            users=n_users, repetitions=total_queries,
        )
        for strategy, n_users in grid
    ]
    result = ExperimentResult(title)
    for (strategy, n_users), outcome in zip(grid, run_cells(cells, jobs)):
        result.add(
            strategy=strategy,
            users=n_users,
            seconds=outcome.metrics.workload_seconds,
            h2d_seconds=outcome.metrics.cpu_to_gpu_seconds,
            d2h_seconds=outcome.metrics.gpu_to_cpu_seconds,
            aborts=outcome.metrics.aborts,
            wasted_seconds=outcome.metrics.wasted_seconds,
        )
    return result


def figure03(**kwargs) -> ExperimentResult:
    kwargs.setdefault("strategies", ("gpu_only",))
    kwargs.setdefault(
        "title",
        "Figure 3: parallel selection workload (heap contention, "
        "operator-driven)",
    )
    return micro_users_sweep(**kwargs)


def figure07(**kwargs) -> ExperimentResult:
    kwargs.setdefault("strategies", ("gpu_only", "data_driven"))
    kwargs.setdefault(
        "title",
        "Figure 7: Data-Driven does not solve heap contention",
    )
    return micro_users_sweep(**kwargs)


def figure09(**kwargs) -> ExperimentResult:
    kwargs.setdefault("strategies", ("gpu_only", "runtime"))
    kwargs.setdefault(
        "title",
        "Figure 9: run-time placement improves but is not optimal",
    )
    return micro_users_sweep(**kwargs)


def figure12(**kwargs) -> ExperimentResult:
    kwargs.setdefault(
        "strategies", ("gpu_only", "runtime", "chopping", "data_driven_chopping")
    )
    kwargs.setdefault(
        "title", "Figure 12: Chopping achieves near-optimal performance"
    )
    return micro_users_sweep(**kwargs)


def figure13(**kwargs) -> ExperimentResult:
    kwargs.setdefault(
        "strategies", ("gpu_only", "runtime", "chopping")
    )
    kwargs.setdefault(
        "title", "Figure 13: operator aborts per strategy"
    )
    return micro_users_sweep(**kwargs)


# ---------------------------------------------------------------------------
# Figures 14, 15, 16 — scaling the database size
# ---------------------------------------------------------------------------

#: The strategy set of Sec. 6.2.
FULL_WORKLOAD_STRATEGIES = (
    "cpu_only",
    "gpu_only",
    "critical_path",
    "data_driven",
    "chopping",
    "data_driven_chopping",
)


def scale_factor_sweep(
    benchmark: str = "ssb",
    scale_factors: Sequence[float] = (5, 10, 15, 20, 30),
    strategies: Sequence[str] = FULL_WORKLOAD_STRATEGIES,
    repetitions: int = 2,
    title: Optional[str] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Workload time / transfer time / footprint vs. scale factor."""
    scale_factors = _grid(scale_factors)
    repetitions = _reps(repetitions)
    grid = [
        (scale_factor, strategy)
        for scale_factor in scale_factors
        for strategy in strategies
    ]
    cells = [
        Cell(
            workload=benchmark, scale_factor=scale_factor, strategy=strategy,
            config=FULL_CONFIG, repetitions=repetitions,
        )
        for scale_factor, strategy in grid
    ]
    result = ExperimentResult(
        title or "Scale factor sweep ({})".format(benchmark)
    )
    for (scale_factor, strategy), outcome in zip(grid, run_cells(cells, jobs)):
        result.add(
            benchmark=benchmark,
            scale_factor=scale_factor,
            strategy=strategy,
            seconds=outcome.metrics.workload_seconds,
            h2d_seconds=outcome.metrics.cpu_to_gpu_seconds,
            d2h_seconds=outcome.metrics.gpu_to_cpu_seconds,
            aborts=outcome.metrics.aborts,
            footprint_gib=outcome.footprint_bytes / GIB,
        )
    return result


def figure14(benchmark: str = "ssb", **kwargs) -> ExperimentResult:
    kwargs.setdefault(
        "title",
        "Figure 14: workload execution time vs. scale factor "
        "({})".format(benchmark),
    )
    return scale_factor_sweep(benchmark, **kwargs)


def figure15(benchmark: str = "ssb", **kwargs) -> ExperimentResult:
    kwargs.setdefault(
        "title",
        "Figure 15: CPU->GPU transfer time vs. scale factor "
        "({})".format(benchmark),
    )
    return scale_factor_sweep(benchmark, **kwargs)


def figure16(
    benchmarks: Sequence[str] = ("ssb", "tpch"),
    scale_factors: Sequence[float] = (5, 10, 15, 20, 30),
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Workload memory footprint vs. scale factor (no execution)."""
    scale_factors = _grid(scale_factors)
    grid = [
        (benchmark, scale_factor)
        for benchmark in benchmarks
        for scale_factor in scale_factors
    ]
    cells = [
        Cell(workload=benchmark, scale_factor=scale_factor,
             measure="footprint")
        for benchmark, scale_factor in grid
    ]
    result = ExperimentResult(
        "Figure 16: memory footprint of the workloads",
        notes="The GPU data cache is {} GiB.".format(
            FULL_CONFIG.gpu_cache_bytes / GIB
        ),
    )
    for (benchmark, scale_factor), outcome in zip(grid, run_cells(cells, jobs)):
        footprint = outcome.footprint_bytes
        result.add(
            benchmark=benchmark,
            scale_factor=scale_factor,
            footprint_gib=footprint / GIB,
            exceeds_cache=footprint > FULL_CONFIG.gpu_cache_bytes,
        )
    return result


# ---------------------------------------------------------------------------
# Figure 17 — selected SSB queries at scale factor 30, single user
# ---------------------------------------------------------------------------

def query_latencies(
    benchmark: str = "ssb",
    scale_factor: float = 30,
    strategies: Sequence[str] = (
        "cpu_only", "gpu_only", "critical_path", "data_driven_chopping"
    ),
    users: int = 1,
    repetitions: int = 3,
    query_names: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Mean per-query latency per strategy."""
    repetitions = _reps(repetitions)
    cells = [
        Cell(
            workload=benchmark, scale_factor=scale_factor, strategy=strategy,
            config=FULL_CONFIG, users=users, repetitions=repetitions,
            query_names=tuple(query_names) if query_names is not None else None,
        )
        for strategy in strategies
    ]
    result = ExperimentResult(
        title
        or "Per-query latencies ({}, SF {}, {} users)".format(
            benchmark, scale_factor, users
        )
    )
    for strategy, outcome in zip(strategies, run_cells(cells, jobs)):
        for name, latency in outcome.metrics.latencies_by_query().items():
            result.add(
                query=name, strategy=strategy, seconds=latency
            )
    return result


def figure17(**kwargs) -> ExperimentResult:
    kwargs.setdefault(
        "title",
        "Figure 17: SSB query execution times, single user, SF 30",
    )
    return query_latencies(**kwargs)


# ---------------------------------------------------------------------------
# Figures 18, 19, 20 — scaling user parallelism on the full workloads
# ---------------------------------------------------------------------------

def benchmark_users_sweep(
    benchmark: str = "ssb",
    scale_factor: float = 10,
    users: Sequence[int] = (1, 5, 10, 15, 20),
    strategies: Sequence[str] = (
        "gpu_only", "data_driven", "chopping", "data_driven_chopping"
    ),
    repetitions: int = 3,
    title: Optional[str] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Workload time, transfer time, aborts and wasted time vs. #users."""
    users = _grid(users)
    repetitions = _reps(repetitions)
    grid = [(strategy, n_users) for strategy in strategies for n_users in users]
    cells = [
        Cell(
            workload=benchmark, scale_factor=scale_factor, strategy=strategy,
            config=FULL_CONFIG, users=n_users, repetitions=repetitions,
        )
        for strategy, n_users in grid
    ]
    result = ExperimentResult(
        title
        or "User parallelism sweep ({}, SF {})".format(benchmark, scale_factor)
    )
    for (strategy, n_users), outcome in zip(grid, run_cells(cells, jobs)):
        result.add(
            benchmark=benchmark,
            strategy=strategy,
            users=n_users,
            seconds=outcome.metrics.workload_seconds,
            h2d_seconds=outcome.metrics.cpu_to_gpu_seconds,
            d2h_seconds=outcome.metrics.gpu_to_cpu_seconds,
            aborts=outcome.metrics.aborts,
            wasted_seconds=outcome.metrics.wasted_seconds,
        )
    return result


def figure18(benchmark: str = "ssb", **kwargs) -> ExperimentResult:
    kwargs.setdefault(
        "title",
        "Figure 18: workload execution time vs. #users ({})".format(benchmark),
    )
    return benchmark_users_sweep(benchmark, **kwargs)


def figure19(benchmark: str = "ssb", **kwargs) -> ExperimentResult:
    kwargs.setdefault(
        "title",
        "Figure 19: CPU->GPU transfer time vs. #users ({})".format(benchmark),
    )
    return benchmark_users_sweep(benchmark, **kwargs)


def figure20(**kwargs) -> ExperimentResult:
    kwargs.setdefault(
        "title", "Figure 20: wasted time of aborted GPU operators (SSB)"
    )
    return benchmark_users_sweep("ssb", **kwargs)


# ---------------------------------------------------------------------------
# Figure 21 / 25 — query latencies under parallel users
# ---------------------------------------------------------------------------

def figure21(**kwargs) -> ExperimentResult:
    kwargs.setdefault("scale_factor", 10)
    kwargs.setdefault("users", 20)
    kwargs.setdefault(
        "strategies",
        ("gpu_only", "admission_control", "chopping", "data_driven_chopping"),
    )
    kwargs.setdefault(
        "title", "Figure 21: SSB query latencies, 20 users, SF 10"
    )
    return query_latencies(**kwargs)


def figure25(
    users: Sequence[int] = (1, 5, 10, 20),
    strategies: Sequence[str] = (
        "gpu_only", "admission_control", "chopping", "data_driven_chopping"
    ),
    scale_factor: float = 10,
    repetitions: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Latencies of all SSB queries for a varying number of users."""
    users = _grid(users)
    repetitions = _reps(repetitions)
    grid = [(strategy, n_users) for strategy in strategies for n_users in users]
    cells = [
        Cell(
            workload="ssb", scale_factor=scale_factor, strategy=strategy,
            config=FULL_CONFIG, users=n_users, repetitions=repetitions,
        )
        for strategy, n_users in grid
    ]
    result = ExperimentResult(
        "Figure 25: SSB query latencies vs. #users (SF {})".format(scale_factor)
    )
    for (strategy, n_users), outcome in zip(grid, run_cells(cells, jobs)):
        for name, latency in outcome.metrics.latencies_by_query().items():
            result.add(
                query=name, strategy=strategy, users=n_users,
                seconds=latency,
            )
    return result


# ---------------------------------------------------------------------------
# Figures 22, 23 — engine comparison (CoGaDB vs. Ocelot profile)
# ---------------------------------------------------------------------------

def engine_comparison(
    benchmark: str,
    scale_factor: float = 10,
    repetitions: int = 3,
    title: Optional[str] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Per-query CPU and GPU backend latencies for both engine profiles.

    Substitution (DESIGN.md §2): Ocelot is modelled as a second
    calibration profile on the same simulated hardware.
    """
    repetitions = _reps(repetitions)
    result = ExperimentResult(
        title
        or "Engine comparison on {} (SF {})".format(benchmark, scale_factor),
        notes="Configuration without thrashing or contention (App. A): "
              "a device large enough to hold the working set.",
    )
    # The appendix explicitly measures raw query-processing power in a
    # configuration where neither cache thrashing nor heap contention
    # occurs — model that with a roomy device.
    roomy = SystemConfig(gpu_memory_bytes=8 * GIB, gpu_cache_bytes=5 * GIB)
    grid = [
        (profile, backend, strategy)
        for profile in (COGADB_PROFILE, OCELOT_PROFILE)
        for backend, strategy in (("cpu", "cpu_only"), ("gpu", "gpu_only"))
    ]
    cells = [
        Cell(
            workload=benchmark, scale_factor=scale_factor, strategy=strategy,
            config=roomy.with_profile(profile), repetitions=repetitions,
        )
        for profile, backend, strategy in grid
    ]
    for (profile, backend, _), outcome in zip(grid, run_cells(cells, jobs)):
        for name, latency in outcome.metrics.latencies_by_query().items():
            result.add(
                query=name,
                engine=profile.name,
                backend=backend,
                seconds=latency,
            )
    return result


def figure22(**kwargs) -> ExperimentResult:
    kwargs.setdefault(
        "title", "Figure 22: TPC-H per-query times, CoGaDB vs Ocelot profile"
    )
    return engine_comparison("tpch", **kwargs)


def figure23(**kwargs) -> ExperimentResult:
    kwargs.setdefault(
        "title", "Figure 23: SSB per-query times, CoGaDB vs Ocelot profile"
    )
    return engine_comparison("ssb", **kwargs)


# ---------------------------------------------------------------------------
# Extension: multiple co-processors (Sec. 6.3 scale-up discussion)
# ---------------------------------------------------------------------------

def multi_gpu_scaling(
    benchmark: str = "ssb",
    scale_factor: float = 30,
    gpu_counts: Sequence[int] = (1, 2, 4),
    strategies: Sequence[str] = ("data_driven_chopping", "chopping"),
    users: int = 10,
    repetitions: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Scale-up with several co-processors.

    Sec. 6.3: "it is common to use multiple GPUs in a single machine,
    which can handle larger databases and more parallel users...  Our
    Data-Driven strategy can support multiple co-processors by
    performing horizontal partitioning."  The placement manager
    partitions the hot columns across the devices; data-driven chopping
    sends each operator to the device holding its inputs.
    """
    gpu_counts = _grid(gpu_counts)
    repetitions = _reps(repetitions)
    grid = [
        (strategy, gpu_count)
        for strategy in strategies
        for gpu_count in gpu_counts
    ]
    cells = [
        Cell(
            workload=benchmark, scale_factor=scale_factor, strategy=strategy,
            config=SystemConfig(
                gpu_count=gpu_count,
                gpu_memory_bytes=FULL_CONFIG.gpu_memory_bytes,
                gpu_cache_bytes=FULL_CONFIG.gpu_cache_bytes,
            ),
            users=users, repetitions=repetitions,
        )
        for strategy, gpu_count in grid
    ]
    result = ExperimentResult(
        "Extension: multi-GPU scale-up ({}, SF {}, {} users)".format(
            benchmark, scale_factor, users
        )
    )
    for (strategy, gpu_count), outcome in zip(grid, run_cells(cells, jobs)):
        gpu_ops = sum(
            count
            for name, count in outcome.metrics.operators_per_processor.items()
            if name != "cpu"
        )
        result.add(
            strategy=strategy,
            gpus=gpu_count,
            seconds=outcome.metrics.workload_seconds,
            h2d_seconds=outcome.metrics.cpu_to_gpu_seconds,
            aborts=outcome.metrics.aborts,
            gpu_operators=gpu_ops,
        )
    return result


# ---------------------------------------------------------------------------
# Figure 24 — LFU vs. LRU data placement
# ---------------------------------------------------------------------------

def figure24(
    fractions: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    policies: Sequence[str] = ("lru", "lfu"),
    scale_factor: float = 10,
    repetitions: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """SSB workload under Data-Driven with varying cache fraction.

    The fraction scales a 3.5 GiB budget so at least 0.5 GiB of heap
    remains for operator intermediates.
    """
    fractions = _grid(fractions)
    repetitions = _reps(repetitions)
    budget = 3.0 * GIB
    grid = [
        (policy, fraction) for policy in policies for fraction in fractions
    ]
    cells = [
        Cell(
            workload="ssb", scale_factor=scale_factor, strategy="data_driven",
            config=SystemConfig(
                gpu_memory_bytes=4 * GIB,
                gpu_cache_bytes=int(fraction * budget),
            ),
            repetitions=repetitions, placement_policy=policy,
        )
        for policy, fraction in grid
    ]
    result = ExperimentResult(
        "Figure 24: LFU vs LRU data placement (SSB, SF {})".format(scale_factor)
    )
    for (policy, fraction), outcome in zip(grid, run_cells(cells, jobs)):
        result.add(
            policy=policy,
            cache_fraction=fraction,
            seconds=outcome.metrics.workload_seconds,
            h2d_seconds=outcome.metrics.cpu_to_gpu_seconds,
        )
    return result


# ---------------------------------------------------------------------------
# Chaos — graceful degradation under injected faults
# ---------------------------------------------------------------------------

def chaos_sweep(
    fault_rates: Sequence[float] = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2),
    strategy: str = "runtime",
    scale_factor: float = 10,
    users: int = 2,
    repetitions: int = 2,
    seed: int = 7,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Degradation curve: SSB makespan vs. injected fault rate.

    Every faulted cell runs with ``validate=True`` — the correctness
    gate of the tentpole: faults cost time, never answers.  The final
    row is the CPU-only configuration, the asymptote a co-processor
    system degrades towards as its devices become unusable; graceful
    degradation means the faulted makespans stay bounded by (about)
    that floor instead of diverging or crashing.
    """
    from repro.faults import FaultConfig

    fault_rates = _grid(fault_rates)
    repetitions = _reps(repetitions)
    cells = [
        Cell(
            workload="ssb", scale_factor=scale_factor, strategy=strategy,
            config=FULL_CONFIG, users=users, repetitions=repetitions,
            faults=(FaultConfig.uniform(rate, seed=seed) if rate > 0
                    else None),
            validate=True,
        )
        for rate in fault_rates
    ]
    # the CPU-only floor: the latency bound a degraded system approaches
    cells.append(
        Cell(
            workload="ssb", scale_factor=scale_factor, strategy="cpu_only",
            config=FULL_CONFIG, users=users, repetitions=repetitions,
            validate=True,
        )
    )
    result = ExperimentResult(
        "Chaos: SSB under injected faults ({}, SF {})".format(
            strategy, scale_factor
        ),
        notes="results validated at every rate; cpu_only row is the "
              "degradation asymptote",
    )
    outcomes = run_cells(cells, jobs)
    for rate, outcome in zip(fault_rates, outcomes[:-1]):
        transitions = outcome.metrics.breaker_transition_counts()
        result.add(
            strategy=strategy,
            fault_rate=rate,
            seconds=outcome.metrics.workload_seconds,
            faults_injected=outcome.faults_injected,
            retries=outcome.metrics.retries,
            aborts=outcome.metrics.aborts,
            breaker_opens=transitions.get("open", 0),
            breaker_half_opens=transitions.get("half_open", 0),
            breaker_closes=transitions.get("closed", 0),
            breaker_skips=sum(outcome.metrics.breaker_skips.values()),
            wasted_seconds=outcome.metrics.wasted_seconds,
        )
    floor = outcomes[-1]
    result.add(
        strategy="cpu_only",
        fault_rate=float("nan"),
        seconds=floor.metrics.workload_seconds,
        faults_injected=0,
        retries=0,
        aborts=floor.metrics.aborts,
        breaker_opens=0,
        breaker_half_opens=0,
        breaker_closes=0,
        breaker_skips=0,
        wasted_seconds=floor.metrics.wasted_seconds,
    )
    return result


# ---------------------------------------------------------------------------
# Extension — asynchronous copy engine: transfer/compute overlap
# ---------------------------------------------------------------------------

def overlap_sweep(
    benchmark: str = "ssb",
    scale_factor: float = 10,
    users: Sequence[int] = (1, 2, 4, 8),
    gpu_count: int = 2,
    strategy: str = "runtime",
    repetitions: int = 2,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Transfer-bound sweep: serialized bus vs. asynchronous copy engine.

    Every cell starts cold (``warm_cache=False``) so staging traffic
    dominates, the shape of Figs. 6/15 where the bus is the bottleneck.
    Each user count runs twice — once on the paper-faithful serialized
    single-channel bus, once with the copy engine's per-device duplex
    channels, coalescing, and placement-driven prefetch — and the table
    reports the speedup together with the new bus-accounting counters
    (queueing delay, overlap ratio, coalesce and prefetch-hit counts).
    """
    users = _grid(users)
    repetitions = _reps(repetitions)
    base_config = SystemConfig(
        gpu_count=gpu_count,
        gpu_memory_bytes=FULL_CONFIG.gpu_memory_bytes,
        gpu_cache_bytes=FULL_CONFIG.gpu_cache_bytes,
    )
    grid = [(n_users, engine) for n_users in users
            for engine in (False, True)]
    cells = [
        Cell(
            workload=benchmark, scale_factor=scale_factor, strategy=strategy,
            config=base_config.with_copy_engine(engine),
            users=n_users, repetitions=repetitions, warm_cache=False,
        )
        for n_users, engine in grid
    ]
    result = ExperimentResult(
        "Extension: copy-engine overlap sweep ({}, SF {}, {} GPUs)".format(
            benchmark, scale_factor, gpu_count
        )
    )
    outcomes = run_cells(cells, jobs)
    baseline_seconds = {}
    for (n_users, engine), outcome in zip(grid, outcomes):
        metrics = outcome.metrics
        seconds = metrics.workload_seconds
        if not engine:
            baseline_seconds[n_users] = seconds
        result.add(
            users=n_users,
            copy_engine=engine,
            seconds=seconds,
            speedup=(baseline_seconds[n_users] / seconds
                     if seconds else float("nan")),
            h2d_seconds=metrics.cpu_to_gpu_seconds,
            queue_seconds=metrics.transfer_queue_seconds,
            overlap_ratio=metrics.overlap_ratio,
            coalesced=metrics.coalesced_transfers,
            prefetch_hits=metrics.prefetch_hits,
        )
    return result


# ---------------------------------------------------------------------------
# Extension — overload-safe query lifecycle
# ---------------------------------------------------------------------------

def overload_sweep(
    loads: Sequence[int] = (1, 2, 4, 8),
    strategy: str = "chopping",
    scale_factor: float = 10,
    repetitions: int = 2,
    max_inflight: int = 2,
    overload_policy: str = "queue",
    deadline_seconds: Optional[float] = None,
    hedge_factor: Optional[float] = 3.0,
    fault_rate: float = 0.02,
    seed: int = 7,
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

    loads = _grid(loads)
    repetitions = _reps(repetitions)
    lifecycle = LifecycleConfig(
        max_inflight=max_inflight,
        overload_policy=overload_policy,
        deadline_seconds=deadline_seconds,
        hedge_factor=hedge_factor,
    )
    faults = (FaultConfig.uniform(fault_rate, seed=seed)
              if fault_rate > 0 else None)
    grid = [(n_users, on) for n_users in loads for on in (False, True)]
    cells = [
        Cell(
            workload="ssb", scale_factor=scale_factor, strategy=strategy,
            config=FULL_CONFIG, users=n_users, repetitions=repetitions,
            faults=faults, lifecycle=(lifecycle if on else None),
            validate=True,
        )
        for n_users, on in grid
    ]
    result = ExperimentResult(
        "Extension: overload sweep ({}, SF {}, policy {})".format(
            strategy, scale_factor, overload_policy
        ),
        notes="results validated in every cell; 'lifecycle' toggles "
              "admission control, deadlines, and hedging",
    )
    for (n_users, on), outcome in zip(grid, run_cells(cells, jobs)):
        result.add(
            users=n_users,
            lifecycle="on" if on else "off",
            seconds=outcome.metrics.workload_seconds,
            p50_latency=outcome.metrics.latency_percentile(0.50),
            p99_latency=outcome.metrics.latency_percentile(0.99),
            completed=len(outcome.metrics.queries),
            admission_waits=outcome.metrics.admission_waits,
            admission_wait_seconds=outcome.metrics.admission_wait_seconds,
            sheds=sum(outcome.metrics.sheds.values()),
            degraded=sum(outcome.metrics.degraded_to_cpu.values()),
            deadline_misses=sum(outcome.metrics.deadline_misses.values()),
            cancelled=len(outcome.metrics.cancelled_queries),
            hedges=outcome.metrics.hedges_started,
            hedge_wins=outcome.metrics.hedge_wins,
        )
    return result
