"""Smoke tests: every figure driver runs with tiny parameters and
produces the columns its benchmark and the EXPERIMENTS.md index expect."""

import pytest

from repro.harness import experiments as E


def columns_of(result):
    return set(result.columns())


def test_figure01_columns():
    result = E.figure01(scale_factor=5, repetitions=1)
    assert columns_of(result) == {"strategy", "seconds", "h2d_seconds"}
    assert len(result.rows) == 3


def test_buffer_sweep_row_count():
    result = E.buffer_size_sweep(
        strategies=("gpu_only",), buffer_gib=(0.0, 2.5), repetitions=1
    )
    assert len(result.rows) == 2
    assert {"buffer_gib", "seconds", "h2d_seconds",
            "cache_hit_rate"} <= columns_of(result)


def test_micro_users_sweep_row_count():
    result = E.micro_users_sweep(
        strategies=("chopping",), users=(1, 3), total_queries=6
    )
    assert len(result.rows) == 2
    assert {"users", "aborts", "wasted_seconds"} <= columns_of(result)


def test_scale_factor_sweep_covers_strategies():
    result = E.scale_factor_sweep(
        "ssb", scale_factors=(5,), strategies=("cpu_only", "gpu_only"),
        repetitions=1,
    )
    assert {row["strategy"] for row in result.rows} == {
        "cpu_only", "gpu_only",
    }
    assert {"footprint_gib", "d2h_seconds"} <= columns_of(result)


def test_figure16_exceeds_cache_flag_consistent():
    result = E.figure16(benchmarks=("ssb",), scale_factors=(5, 30))
    from repro.harness.experiments import FULL_CONFIG

    cache_gib = FULL_CONFIG.gpu_cache_bytes / (1 << 30)
    for row in result.rows:
        assert row["exceeds_cache"] == (row["footprint_gib"] > cache_gib)


def test_query_latencies_all_queries_present():
    result = E.query_latencies(
        benchmark="ssb", scale_factor=5, strategies=("cpu_only",),
        repetitions=1,
    )
    queries = {row["query"] for row in result.rows}
    assert len(queries) == 13


def test_query_latencies_subset_selection():
    result = E.query_latencies(
        benchmark="ssb", scale_factor=5, strategies=("cpu_only",),
        repetitions=1, query_names=("Q1.1", "Q3.3"),
    )
    assert {row["query"] for row in result.rows} == {"Q1.1", "Q3.3"}


def test_benchmark_users_sweep_tpch():
    result = E.benchmark_users_sweep(
        "tpch", users=(1,), strategies=("cpu_only",), repetitions=1
    )
    assert len(result.rows) == 1
    assert result.rows[0]["benchmark"] == "tpch"


def test_figure24_policies_and_fractions():
    result = E.figure24(fractions=(0.0, 0.8), policies=("lfu",),
                        repetitions=1)
    assert len(result.rows) == 2
    assert all(row["policy"] == "lfu" for row in result.rows)


def test_figure25_rows_per_query_user_strategy():
    result = E.figure25(users=(1,), strategies=("cpu_only",),
                        repetitions=1)
    assert len(result.rows) == 13


def test_engine_comparison_has_both_profiles():
    result = E.engine_comparison("tpch", repetitions=1)
    engines = {row["engine"] for row in result.rows}
    backends = {row["backend"] for row in result.rows}
    assert engines == {"cogadb", "ocelot"}
    assert backends == {"cpu", "gpu"}


def test_multi_gpu_scaling_columns():
    result = E.multi_gpu_scaling(
        gpu_counts=(1,), strategies=("chopping",), users=2, repetitions=1
    )
    assert {"gpus", "seconds", "gpu_operators"} <= columns_of(result)


def test_unknown_benchmark_rejected():
    with pytest.raises(ValueError):
        E.scale_factor_sweep("tpcds", scale_factors=(5,),
                             strategies=("cpu_only",))


def test_databases_are_cached_and_deterministic():
    first = E.ssb_database(5)
    second = E.ssb_database(5)
    assert first is second  # lru_cache
    import numpy as np

    fresh = E.ssb_database.__wrapped__(5)
    assert np.array_equal(
        fresh.column("lineorder.lo_revenue").values,
        first.column("lineorder.lo_revenue").values,
    )


def test_overload_sweep_rows_and_lifecycle_columns():
    result = E.overload_sweep(
        loads=(1, 4), scale_factor=5, repetitions=1, fault_rate=0.0
    )
    assert len(result.rows) == 4  # each load with the lifecycle off/on
    assert {"users", "lifecycle", "p99_latency", "admission_waits",
            "deadline_misses", "cancelled"} <= columns_of(result)
    by_state = {(row["users"], row["lifecycle"]) for row in result.rows}
    assert by_state == {(1, "off"), (1, "on"), (4, "off"), (4, "on")}
    for row in result.rows:
        if row["lifecycle"] == "off":
            assert row["admission_waits"] == 0
