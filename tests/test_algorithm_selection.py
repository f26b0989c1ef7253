"""Tests for HyPE's algorithm selection."""

import pytest

from repro.hardware.calibration import COGADB_PROFILE, GIB, KIB
from repro.hardware.processor import ProcessorKind
from repro.hype import LearnedCostModel, choose_algorithm


@pytest.fixture()
def cost_model():
    return LearnedCostModel(COGADB_PROFILE)


class TestProfileVariants:
    def test_kinds_with_variants(self):
        assert set(COGADB_PROFILE.algorithm_keys("join")) == {
            "join#hash_join", "join#nested_loop_join",
        }
        assert set(COGADB_PROFILE.algorithm_keys("sort")) == {
            "sort#radix_sort", "sort#insertion_sort",
        }
        assert COGADB_PROFILE.algorithm_keys("selection") == ()

    def test_composite_key_addressing(self):
        bulk = COGADB_PROFILE.compute_seconds(
            "join#hash_join", ProcessorKind.CPU, GIB
        )
        small = COGADB_PROFILE.compute_seconds(
            "join#nested_loop_join", ProcessorKind.CPU, GIB
        )
        # the variant loses badly on bulk inputs
        assert small > bulk

    def test_variant_wins_on_small_inputs(self):
        bulk = COGADB_PROFILE.compute_seconds(
            "join#hash_join", ProcessorKind.CPU, 4 * KIB
        )
        small = COGADB_PROFILE.compute_seconds(
            "join#nested_loop_join", ProcessorKind.CPU, 4 * KIB
        )
        assert small < bulk  # lower startup dominates tiny inputs

    def test_default_curve_matches_base_calibration(self):
        for kind, default in (("join", "hash_join"),
                              ("sort", "radix_sort"),
                              ("groupby", "hash_aggregate")):
            base = COGADB_PROFILE.compute_seconds(
                kind, ProcessorKind.GPU, GIB
            )
            named = COGADB_PROFILE.compute_seconds(
                "{}#{}".format(kind, default), ProcessorKind.GPU, GIB
            )
            assert named == base


class TestChooser:
    def test_large_input_picks_bulk_algorithm(self, cost_model):
        key, estimate = choose_algorithm(
            cost_model, COGADB_PROFILE, "join", ProcessorKind.CPU, GIB
        )
        assert key == "join#hash_join"
        assert estimate > 0

    def test_small_input_picks_low_startup_algorithm(self, cost_model):
        key, _ = choose_algorithm(
            cost_model, COGADB_PROFILE, "join", ProcessorKind.CPU, 1 * KIB
        )
        assert key == "join#nested_loop_join"

    def test_kind_without_variants_passes_through(self, cost_model):
        key, estimate = choose_algorithm(
            cost_model, COGADB_PROFILE, "selection", ProcessorKind.GPU, GIB
        )
        assert key == "selection"
        assert estimate == COGADB_PROFILE.compute_seconds(
            "selection", ProcessorKind.GPU, GIB
        )

    def test_learned_observations_override_analytics(self, cost_model):
        cost_model.min_observations = 2
        cost_model.refit_interval = 1
        # teach the model that the bulk join is catastrophically slow
        for size in (1e6, 2e6, 4e6):
            cost_model.observe("join#hash_join", ProcessorKind.CPU,
                               size, 100.0)
        key, _ = choose_algorithm(
            cost_model, COGADB_PROFILE, "join", ProcessorKind.CPU, 2e6
        )
        assert key == "join#nested_loop_join"


class TestEndToEnd:
    def test_workload_records_algorithm_choices(self):
        from repro.harness import experiments as E
        from repro.harness import run_workload
        from repro.workloads import ssb

        database = E.ssb_database(10)  # paper-scale joins are bulk
        queries = ssb.workload(database, ["Q2.1", "Q3.1"])
        run = run_workload(database, queries, "data_driven_chopping",
                           repetitions=2)
        selected = run.metrics.algorithms
        assert sum(selected.values()) > 0
        # the bulk hash join carries the fact-table joins
        assert "join#hash_join" in selected

    def test_mixed_sizes_select_both_variants(self, ssb_db):
        """Fact-side joins are bulk; tiny frame sorts pick the
        low-startup variant."""
        from repro.harness import run_workload
        from repro.workloads import ssb

        queries = ssb.workload(ssb_db)
        run = run_workload(ssb_db, queries, "cpu_only", repetitions=1)
        selected = run.metrics.algorithms
        sort_keys = {k for k in selected if k.startswith("sort#")}
        # SSB result frames are small: the insertion variant appears
        assert "sort#insertion_sort" in sort_keys


def test_ablation_algorithm_selection_on_and_off():
    """Sec. 5.2: HyPE "selects for each operator a suitable
    algorithm" — small inputs get low-startup variants (nested-loop
    join, insertion sort), bulk inputs the high-throughput defaults;
    switching the selection off forces the bulk defaults everywhere.
    (``pytest -s`` prints the table EXPERIMENTS.md quotes.)"""
    from repro.harness import experiments as E
    from repro.harness import run_workload
    from repro.harness.tables import ExperimentResult
    from repro.workloads import ssb

    database = E.ssb_database(10)
    queries = ssb.workload(database)
    result = ExperimentResult(
        "Ablation: HyPE algorithm selection (SSB, single user)")
    bulk = ("hash_join", "radix_sort", "hash_aggregate")
    for enabled in (True, False):
        run = run_workload(database, queries, "data_driven_chopping",
                           config=E.FULL_CONFIG, repetitions=3,
                           algorithm_selection=enabled)
        result.add(
            algorithm_selection=enabled, seconds=run.seconds,
            variant_executions=sum(
                count for key, count in run.metrics.algorithms.items()
                if "#" in key and not key.endswith(bulk)))
    print()
    result.print()
    rows = {row["algorithm_selection"]: row for row in result.rows}
    # with selection enabled, non-default variants actually run
    assert rows[True]["variant_executions"] > 0
    assert rows[False]["variant_executions"] == 0
    # selection never hurts (it minimizes per-operator estimates)
    assert rows[True]["seconds"] <= rows[False]["seconds"] * 1.02
