"""Reproduction shape tests: the qualitative claims of every paper
figure must hold on (scaled-down) harness runs.

These are the repository's headline assertions — each test states the
paper's claim it checks.
"""

import pytest

from repro.harness import experiments as E


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def figure01():
    return E.figure01(scale_factor=20, repetitions=2)


def test_fig01_cold_gpu_slower_than_cpu(figure01):
    """Fig. 1: with uncached input, using the GPU slows the system down."""
    seconds = {row["strategy"]: row["seconds"] for row in figure01.rows}
    assert seconds["gpu (cold cache)"] > seconds["cpu"]


def test_fig01_hot_gpu_beats_cpu_at_moderate_scale():
    """Fig. 1 (moderate SF): the hot-cache GPU accelerates by ~2.5x."""
    result = E.figure01(scale_factor=10, repetitions=2)
    seconds = {row["strategy"]: row["seconds"] for row in result.rows}
    assert seconds["gpu (hot cache)"] * 1.5 < seconds["cpu"]


# ---------------------------------------------------------------------------
# Figures 2, 5, 6 (cache thrashing)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def buffer_sweep():
    return E.buffer_size_sweep(
        strategies=("gpu_only", "data_driven"),
        buffer_gib=(0.0, 1.0, 2.0, 2.5),
        repetitions=4,
    )


def test_fig02_thrashing_degradation_factor(buffer_sweep):
    """Fig. 2: ~24x degradation when the working set exceeds the cache."""
    series = dict(buffer_sweep.series("buffer_gib", "seconds", "strategy"))
    gpu = dict(series["gpu_only"])
    degradation = gpu[0.0] / gpu[2.5]
    assert degradation > 10, degradation
    assert degradation < 60, degradation


def test_fig02_degradation_vanishes_once_working_set_fits(buffer_sweep):
    series = dict(buffer_sweep.series("buffer_gib", "seconds", "strategy"))
    gpu = dict(series["gpu_only"])
    assert gpu[2.0] == pytest.approx(gpu[2.5], rel=0.05)


def test_fig05_data_driven_monotone_and_never_thrashes(buffer_sweep):
    """Fig. 5: Data-Driven degrades gracefully — more cache never hurts,
    and it is never slower than its zero-cache (CPU) level."""
    series = dict(buffer_sweep.series("buffer_gib", "seconds", "strategy"))
    dd = [s for _, s in series["data_driven"]]
    assert all(b <= a * 1.05 for a, b in zip(dd, dd[1:])), dd
    assert max(dd) == pytest.approx(dd[0], rel=0.05)


def test_fig05_data_driven_beats_thrashing_operator_driven(buffer_sweep):
    series = dict(buffer_sweep.series("buffer_gib", "seconds", "strategy"))
    gpu = dict(series["gpu_only"])
    dd = dict(series["data_driven"])
    # in the thrashing regime Data-Driven wins big
    assert dd[1.0] < gpu[1.0] / 2


def test_fig06_transfer_time_explains_thrashing(buffer_sweep):
    """Fig. 6: the degradation is caused by CPU->GPU transfer time."""
    series = dict(
        buffer_sweep.series("buffer_gib", "h2d_seconds", "strategy")
    )
    gpu = dict(series["gpu_only"])
    dd = dict(series["data_driven"])
    assert gpu[0.0] > 10 * max(dd[0.0], 1e-9)
    total = dict(
        dict(buffer_sweep.series("buffer_gib", "seconds", "strategy"))[
            "gpu_only"
        ]
    )
    # transfers dominate the thrashing end
    assert gpu[0.0] > 0.8 * total[0.0] - 1e-9


# ---------------------------------------------------------------------------
# Figures 3, 7, 9, 12, 13 (heap contention)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def users_sweep():
    return E.micro_users_sweep(
        strategies=("gpu_only", "data_driven", "runtime", "chopping",
                    "data_driven_chopping"),
        users=(4, 7, 20),
        total_queries=100,
    )


def series_of(sweep, metric, strategy):
    return dict(dict(sweep.series("users", metric, "strategy"))[strategy])


def test_fig03_contention_degrades_beyond_seven_users(users_sweep):
    """Fig. 3: performance degrades once >7 users share the device."""
    gpu = series_of(users_sweep, "seconds", "gpu_only")
    assert gpu[20] > gpu[4] * 1.5
    assert gpu[7] < gpu[4] * 1.3  # still fine at the breakeven point


def test_fig03_aborts_appear_only_past_the_memory_limit(users_sweep):
    aborts = series_of(users_sweep, "aborts", "gpu_only")
    assert aborts[4] == 0
    assert aborts[20] > 0


def test_fig07_data_driven_does_not_solve_contention(users_sweep):
    """Fig. 7: Data-Driven alone shows the same degradation."""
    dd = series_of(users_sweep, "seconds", "data_driven")
    assert dd[20] > dd[4] * 1.5
    assert series_of(users_sweep, "aborts", "data_driven")[20] > 0


def test_fig09_runtime_placement_improves_but_not_optimal(users_sweep):
    """Fig. 9: run-time placement helps, yet stays off the optimum."""
    gpu = series_of(users_sweep, "seconds", "gpu_only")
    runtime = series_of(users_sweep, "seconds", "runtime")
    chopping = series_of(users_sweep, "seconds", "chopping")
    assert runtime[20] <= gpu[20]
    assert runtime[20] > chopping[20] * 1.2


def test_fig12_chopping_is_near_optimal(users_sweep):
    """Fig. 12: Chopping stays near the single-user-equivalent time."""
    chopping = series_of(users_sweep, "seconds", "chopping")
    assert chopping[20] < series_of(users_sweep, "seconds", "gpu_only")[20]
    assert chopping[20] < chopping[4] * 1.35
    ddc = series_of(users_sweep, "seconds", "data_driven_chopping")
    assert ddc[20] < ddc[4] * 1.35


def test_fig13_chopping_eliminates_aborts(users_sweep):
    """Fig. 13: the thread pool practically removes operator aborts."""
    gpu = series_of(users_sweep, "aborts", "gpu_only")[20]
    chopping = series_of(users_sweep, "aborts", "chopping")[20]
    assert gpu > 0
    assert chopping == 0
    # compile-time placement aborts the most, run-time placement less
    assert gpu >= series_of(users_sweep, "aborts", "runtime")[20] >= chopping
    assert series_of(users_sweep, "aborts", "data_driven_chopping")[20] == 0


# ---------------------------------------------------------------------------
# Figures 14, 15, 16 (scale factor sweep)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scale_sweep():
    return E.scale_factor_sweep(
        benchmark="ssb", scale_factors=(5, 10, 15, 20, 30), repetitions=1,
        strategies=("cpu_only", "gpu_only", "data_driven",
                    "chopping", "data_driven_chopping"),
    )


def sf_series(sweep, metric, strategy):
    return dict(dict(sweep.series("scale_factor", metric, "strategy"))[strategy])


def test_fig14_gpu_only_falls_behind_at_sf15(scale_sweep):
    """Fig. 14: GPU-only is inferior from SF 15 on."""
    cpu = sf_series(scale_sweep, "seconds", "cpu_only")
    gpu = sf_series(scale_sweep, "seconds", "gpu_only")
    assert gpu[5] < cpu[5]       # small data: GPU wins
    assert gpu[15] > cpu[15]     # crossover
    assert gpu[30] > cpu[30] * 1.5


def test_fig14_data_driven_chopping_is_robust(scale_sweep):
    """Fig. 14: Data-Driven Chopping never performs (meaningfully)
    worse than CPU-only and beats GPU-only when resources are scarce."""
    cpu = sf_series(scale_sweep, "seconds", "cpu_only")
    gpu = sf_series(scale_sweep, "seconds", "gpu_only")
    ddc = sf_series(scale_sweep, "seconds", "data_driven_chopping")
    for sf in cpu:  # every scale factor of the sweep
        assert ddc[sf] <= cpu[sf] * 1.1, sf
    assert gpu[30] / ddc[30] > 1.8  # paper: up to factor 2


def test_fig15_gpu_only_transfer_time_grows_fastest(scale_sweep):
    """Fig. 15: GPU-only spends by far the most time on CPU->GPU IO;
    Data-Driven (Chopping) saves the most."""
    gpu = sf_series(scale_sweep, "h2d_seconds", "gpu_only")
    ddc = sf_series(scale_sweep, "h2d_seconds", "data_driven_chopping")
    assert gpu[30] > 10 * max(ddc[30], 1e-9)


def test_fig16_footprint_exceeds_cache_from_sf15(scale_sweep):
    """Fig. 16: the workload footprint crosses the data cache around
    SF 15, which is where the thrashing effects start."""
    from repro.harness.experiments import FULL_CONFIG

    footprints = sf_series(scale_sweep, "footprint_gib", "cpu_only")
    cache_gib = FULL_CONFIG.gpu_cache_bytes / (1 << 30)
    assert footprints[5] < cache_gib
    assert all(footprints[sf] > cache_gib for sf in (15, 20, 30))
    # footprint grows linearly with SF
    assert footprints[30] == pytest.approx(2 * footprints[15], rel=0.1)


# ---------------------------------------------------------------------------
# Figure 17 (selected queries at SF 30)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sf30_latencies():
    result = E.figure17(repetitions=1)
    table = {}
    for row in result.rows:
        table.setdefault(row["query"], {})[row["strategy"]] = row["seconds"]
    return table


def test_fig17_gpu_only_slows_every_query(sf30_latencies):
    for query, row in sf30_latencies.items():
        assert row["gpu_only"] > row["cpu_only"], query


def test_fig17_critical_path_never_slower_than_cpu_only(sf30_latencies):
    """Fig. 17: "Critical Path is always as fast as the CPU-Only
    approach" — it detects the degradation instead of blindly using the
    GPU.  (Our Critical Path estimates cardinalities by sampling, so it
    sometimes finds *faster* hybrid plans than the paper's, which
    stayed fully on the CPU at SF 30.)"""
    for query, row in sf30_latencies.items():
        assert row["critical_path"] <= row["cpu_only"] * 1.15, query


def test_fig17_high_selectivity_queries_accelerate(sf30_latencies):
    """Fig. 17: Q3.4-style high-selectivity queries gain up to ~2.5x
    under Data-Driven Chopping."""
    q34 = sf30_latencies["Q3.4"]
    assert q34["cpu_only"] / q34["data_driven_chopping"] > 1.8


def test_fig17_low_selectivity_queries_unharmed(sf30_latencies):
    """Fig. 17: low-selectivity queries see little impact."""
    for query in ("Q1.1", "Q2.1", "Q3.1", "Q4.1"):
        row = sf30_latencies[query]
        assert row["data_driven_chopping"] <= row["cpu_only"] * 1.25, query


# ---------------------------------------------------------------------------
# Figures 18, 19, 20 (full workloads, parallel users)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def full_users_sweep():
    return E.benchmark_users_sweep(
        benchmark="ssb", users=(1, 20), repetitions=2,
        strategies=("gpu_only", "chopping", "data_driven_chopping"),
    )


def test_fig18_chopping_beats_gpu_only_under_parallel_load(full_users_sweep):
    gpu = series_of(full_users_sweep, "seconds", "gpu_only")
    ddc = series_of(full_users_sweep, "seconds", "data_driven_chopping")
    assert ddc[20] < gpu[20]


def test_fig19_chopping_reduces_transfer_io(full_users_sweep):
    """Fig. 19: Data-Driven Chopping reduces CPU->GPU transfers by a
    large factor (48x in the paper)."""
    gpu = series_of(full_users_sweep, "h2d_seconds", "gpu_only")
    ddc = series_of(full_users_sweep, "h2d_seconds", "data_driven_chopping")
    assert gpu[20] > 10 * max(ddc[20], 1e-9)


def test_fig20_wasted_time_grows_with_users_and_chopping_removes_it(
    full_users_sweep,
):
    gpu = series_of(full_users_sweep, "wasted_seconds", "gpu_only")
    chop = series_of(full_users_sweep, "wasted_seconds", "chopping")
    assert gpu[20] > gpu[1]
    assert gpu[20] > 5 * max(chop[20], 1e-9)


def test_fig18_tpch_chopping_no_slower_under_parallel_load():
    """Fig. 18(b): the same holds for the TPC-H workload."""
    sweep = E.benchmark_users_sweep(
        benchmark="tpch", users=(1, 20), repetitions=2,
        strategies=("gpu_only", "data_driven_chopping"),
    )
    gpu = series_of(sweep, "seconds", "gpu_only")
    ddc = series_of(sweep, "seconds", "data_driven_chopping")
    assert ddc[20] <= gpu[20]


# ---------------------------------------------------------------------------
# Figures 21 / 25 (query latencies under parallel users)
# ---------------------------------------------------------------------------

def mean_latency(rows):
    """strategy -> mean latency over the queries of ``rows``."""
    by_strategy = {}
    for row in rows:
        by_strategy.setdefault(row["strategy"], []).append(row["seconds"])
    return {name: sum(values) / len(values)
            for name, values in by_strategy.items()}


def test_fig21_chopping_as_fast_as_admission_control():
    """Fig. 21: with 20 users, Chopping is as fast as or faster than
    running one query at a time (the admission-control reference)."""
    mean = mean_latency(E.figure21(repetitions=2).rows)
    assert mean["chopping"] <= mean["admission_control"] * 1.1
    assert mean["data_driven_chopping"] <= mean["admission_control"] * 1.1


def test_fig25_chopping_bounds_latencies_as_users_grow():
    """Fig. 25: with increasing parallelism Chopping keeps the query
    latencies bounded while a naive GPU execution degrades."""
    result = E.figure25(
        users=(1, 10, 20), repetitions=2,
        strategies=("gpu_only", "chopping", "data_driven_chopping"),
    )
    for users in (10, 20):
        mean = mean_latency(
            row for row in result.rows if row["users"] == users)
        assert mean["chopping"] <= mean["gpu_only"], users
        assert mean["data_driven_chopping"] <= mean["gpu_only"], users


# ---------------------------------------------------------------------------
# Figures 22 / 23 (engine comparison) and 24 (LFU vs LRU)
# ---------------------------------------------------------------------------

def test_fig22_both_engines_accelerate_on_gpu():
    result = E.figure22(repetitions=1)
    table = {}
    for row in result.rows:
        table.setdefault((row["engine"], row["backend"]), {})[
            row["query"]
        ] = row["seconds"]
    for engine in ("cogadb", "ocelot"):
        cpu = table[(engine, "cpu")]
        gpu = table[(engine, "gpu")]
        accelerated = sum(gpu[q] < cpu[q] for q in cpu)
        assert accelerated >= len(cpu) - 1, engine


def test_fig23_ocelot_cpu_faster_cogadb_competitive():
    """App. A: Ocelot's CPU backend is faster on most SSB queries, the
    GPU backends are comparable."""
    result = E.figure23(repetitions=1)
    table = {}
    for row in result.rows:
        table.setdefault((row["engine"], row["backend"]), {})[
            row["query"]
        ] = row["seconds"]
    cogadb_cpu = table[("cogadb", "cpu")]
    ocelot_cpu = table[("ocelot", "cpu")]
    faster = sum(ocelot_cpu[q] < cogadb_cpu[q] for q in cogadb_cpu)
    assert faster >= len(cogadb_cpu) * 0.7
    cogadb_gpu = table[("cogadb", "gpu")]
    ocelot_gpu = table[("ocelot", "gpu")]
    for query in cogadb_gpu:
        ratio = cogadb_gpu[query] / ocelot_gpu[query]
        assert 0.5 < ratio < 2.0, query


def test_fig24_policies_similar_and_improving_with_cache():
    """App. E: execution times improve as the cache fraction grows, the
    placement policy itself has only minor impact."""
    result = E.figure24(fractions=(0.0, 0.6, 0.8), repetitions=1)
    series = dict(result.series("cache_fraction", "seconds", "policy"))
    lru = dict(series["lru"])
    lfu = dict(series["lfu"])
    for policy_series in (lru, lfu):
        assert policy_series[0.8] < policy_series[0.0]
    # "the data placement strategy itself has only a minor impact"
    assert lfu[0.8] == pytest.approx(lru[0.8], rel=0.25)


# ---------------------------------------------------------------------------
# TPC-H robustness and the worst-case-latency goal (Sec. 1 / 6.3)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tpch_scale_sweep():
    return E.scale_factor_sweep(
        benchmark="tpch", scale_factors=(5, 10, 15, 20, 30), repetitions=1,
        strategies=("cpu_only", "gpu_only", "data_driven_chopping"),
    )


def test_fig14_tpch_robustness(tpch_scale_sweep):
    """Fig. 14(b): the same robustness holds on the TPC-H workload."""
    cpu = sf_series(tpch_scale_sweep, "seconds", "cpu_only")
    gpu = sf_series(tpch_scale_sweep, "seconds", "gpu_only")
    ddc = sf_series(tpch_scale_sweep, "seconds", "data_driven_chopping")
    assert gpu[30] > cpu[30]          # GPU-only collapses at scale
    for sf in cpu:                    # DD-Chopping stays robust
        assert ddc[sf] <= cpu[sf] * 1.15, sf
    assert ddc[30] < gpu[30]


def test_fig15_tpch_gpu_only_moves_the_most_data(tpch_scale_sweep):
    """Fig. 15(b): on TPC-H too, GPU-only spends more time on CPU->GPU
    IO than Data-Driven Chopping."""
    gpu = sf_series(tpch_scale_sweep, "h2d_seconds", "gpu_only")
    ddc = sf_series(tpch_scale_sweep, "h2d_seconds", "data_driven_chopping")
    assert gpu[30] > ddc[30]


def test_worst_case_latency_goal():
    """Sec. 1: 'The main benefit of our approaches lies in optimizing
    the worst-case execution time' — the p99 latency under 20 users is
    better with Data-Driven Chopping than with a naive GPU execution."""
    database = E.ssb_database(10)
    from repro.harness.runner import run_workload
    from repro.workloads import ssb

    queries = ssb.workload(database)
    tails = {}
    for strategy in ("gpu_only", "data_driven_chopping"):
        run = run_workload(database, queries, strategy,
                           config=E.FULL_CONFIG, users=20, repetitions=2)
        tails[strategy] = run.metrics.latency_percentile(0.99)
    assert tails["data_driven_chopping"] < tails["gpu_only"]
