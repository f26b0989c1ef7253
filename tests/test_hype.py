"""Unit tests for the HyPE layer: observations, learned cost models,
load tracking."""

import pytest

from repro.hardware.calibration import COGADB_PROFILE, GIB
from repro.hardware.processor import ProcessorKind
from repro.hype import LearnedCostModel, LoadTracker, ObservationStore


class TestObservationStore:
    def test_add_and_get(self):
        store = ObservationStore()
        store.add("selection", ProcessorKind.GPU, 1000.0, 0.5)
        observations = store.get("selection", ProcessorKind.GPU)
        assert len(observations) == 1
        assert observations[0].input_bytes == 1000.0
        assert observations[0].seconds == 0.5

    def test_keys_are_per_processor(self):
        store = ObservationStore()
        store.add("selection", ProcessorKind.GPU, 1.0, 1.0)
        store.add("selection", ProcessorKind.CPU, 1.0, 2.0)
        assert store.count("selection", ProcessorKind.GPU) == 1
        assert store.count("selection", ProcessorKind.CPU) == 1
        assert len(store.keys()) == 2

    def test_bounded_history_keeps_most_recent(self):
        store = ObservationStore(max_observations_per_key=10)
        for i in range(25):
            store.add("join", ProcessorKind.CPU, float(i), float(i))
        observations = store.get("join", ProcessorKind.CPU)
        assert len(observations) == 10
        assert observations[0].input_bytes == 15.0
        assert observations[-1].input_bytes == 24.0

    def test_series_and_get_agree_after_the_window_wrapped(self):
        store = ObservationStore(max_observations_per_key=10)
        for i in range(37):
            store.add("join", ProcessorKind.CPU, i * 3, i / 7,
                      source="split" if i % 2 else "pure")
            observations = store.get("join", ProcessorKind.CPU)
            input_bytes, seconds = store.series("join", ProcessorKind.CPU)
            assert input_bytes == [o.input_bytes for o in observations]
            assert seconds == [o.seconds for o in observations]
            assert all(type(x) is float for x in input_bytes + seconds)
        assert len(input_bytes) == 10 and input_bytes[0] == 27 * 3.0
        store.clear()
        assert store.series("join", ProcessorKind.CPU) == ([], [])

    def test_get_missing_key_empty(self):
        store = ObservationStore()
        assert store.get("sort", ProcessorKind.GPU) == []
        assert store.series("sort", ProcessorKind.GPU) == ([], [])

    def test_clear(self):
        store = ObservationStore()
        store.add("sort", ProcessorKind.GPU, 1.0, 1.0)
        store.clear()
        assert store.count("sort", ProcessorKind.GPU) == 0


class TestLearnedCostModel:
    def test_fallback_to_analytical_profile(self):
        model = LearnedCostModel(COGADB_PROFILE)
        expected = COGADB_PROFILE.compute_seconds(
            "selection", ProcessorKind.GPU, GIB
        )
        assert model.estimate("selection", ProcessorKind.GPU, GIB) == expected
        assert not model.is_learned("selection", ProcessorKind.GPU)

    def test_learns_linear_relationship(self):
        model = LearnedCostModel(COGADB_PROFILE, min_observations=4,
                                 refit_interval=1)
        # true model: t = 0.1 + 2e-9 * bytes (very unlike the profile)
        for size in (1e6, 2e6, 4e6, 8e6, 16e6):
            model.observe("selection", ProcessorKind.CPU, size,
                          0.1 + 2e-9 * size)
        assert model.is_learned("selection", ProcessorKind.CPU)
        estimate = model.estimate("selection", ProcessorKind.CPU, 10e6)
        assert estimate == pytest.approx(0.1 + 2e-9 * 10e6, rel=1e-6)

    def test_degenerate_constant_inputs(self):
        model = LearnedCostModel(COGADB_PROFILE, min_observations=3,
                                 refit_interval=1)
        for _ in range(5):
            model.observe("join", ProcessorKind.GPU, 1000.0, 0.25)
        assert model.estimate("join", ProcessorKind.GPU, 1000.0) == (
            pytest.approx(0.25)
        )

    def test_estimates_never_negative(self):
        model = LearnedCostModel(COGADB_PROFILE, min_observations=2,
                                 refit_interval=1)
        # negative-slope observations (decreasing times)
        model.observe("sort", ProcessorKind.CPU, 1e6, 1.0)
        model.observe("sort", ProcessorKind.CPU, 2e6, 0.1)
        assert model.estimate("sort", ProcessorKind.CPU, 1e9) >= 0.0

    def test_refit_interval_batches_work(self):
        model = LearnedCostModel(COGADB_PROFILE, min_observations=2,
                                 refit_interval=100)
        model.observe("sort", ProcessorKind.CPU, 1e6, 1.0)
        model.observe("sort", ProcessorKind.CPU, 2e6, 2.0)
        # first fit happened (no previous fit existed)
        assert model.is_learned("sort", ProcessorKind.CPU)
        first = model.estimate("sort", ProcessorKind.CPU, 4e6)
        # more observations within the interval do not refit yet
        for _ in range(10):
            model.observe("sort", ProcessorKind.CPU, 4e6, 100.0)
        assert model.estimate("sort", ProcessorKind.CPU, 4e6) == first

    def test_separate_models_per_processor(self):
        model = LearnedCostModel(COGADB_PROFILE, min_observations=2,
                                 refit_interval=1)
        for size in (1e6, 2e6, 3e6):
            model.observe("selection", ProcessorKind.CPU, size, size * 1e-8)
            model.observe("selection", ProcessorKind.GPU, size, size * 1e-9)
        cpu = model.estimate("selection", ProcessorKind.CPU, 5e6)
        gpu = model.estimate("selection", ProcessorKind.GPU, 5e6)
        assert cpu == pytest.approx(10 * gpu, rel=1e-3)


class TestLoadTracker:
    def test_assign_and_finish(self):
        load = LoadTracker()
        load.assign("gpu", 2.0)
        load.assign("gpu", 3.0)
        assert load.estimated_completion("gpu") == pytest.approx(5.0)
        load.finish("gpu", 2.0)
        assert load.estimated_completion("gpu") == pytest.approx(3.0)

    def test_unknown_processor_is_idle(self):
        load = LoadTracker()
        assert load.estimated_completion("tpu") == 0.0

    def test_never_goes_negative(self):
        load = LoadTracker()
        load.assign("cpu", 1.0)
        load.finish("cpu", 5.0)
        assert load.estimated_completion("cpu") == 0.0

    def test_reset(self):
        load = LoadTracker()
        load.assign("cpu", 1.0)
        load.reset()
        assert load.estimated_completion("cpu") == 0.0
