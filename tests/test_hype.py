"""Unit tests for the HyPE layer: observations, learned cost models,
load tracking."""

import dataclasses
import os
import random
import re
from collections import defaultdict

import numpy as np
import pytest

from repro.hardware.calibration import (
    COGADB_PROFILE,
    GIB,
    OCELOT_PROFILE,
    OP_KINDS,
    EngineProfile,
)
from repro.hardware.processor import ProcessorKind
from repro.hype import (
    LearnedCostModel,
    LoadTracker,
    Observation,
    ObservationStore,
    choose_algorithm,
)


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


# -- the keying is invisible ----------------------------------------------
#
# The cost model as it was first written: every lookup hashes an
# ``(operator kind, ProcessorKind)`` tuple (through the Python-level
# ``Enum.__hash__``), ``observe`` four times over.  The store, the model
# and the profile now pick a per-processor-kind table by identity and
# hash the operator kind alone; these stay here as the reference they
# are checked against, value for value and key order for key order.

class TupleKeyedStore:
    def __init__(self, max_observations_per_key=512):
        self._max = max_observations_per_key
        self._data = defaultdict(lambda: ([], [], []))

    def add(self, op_kind, processor_kind, input_bytes, seconds,
            source="pure"):
        observation = Observation(float(input_bytes), float(seconds), source)
        observations, inputs, durations = self._data[
            (op_kind, processor_kind)]
        observations.append(observation)
        inputs.append(observation.input_bytes)
        durations.append(observation.seconds)
        excess = len(observations) - self._max
        if excess > 0:
            del observations[:excess], inputs[:excess], durations[:excess]

    def get(self, op_kind, processor_kind):
        window = self._data.get((op_kind, processor_kind))
        return window[0] if window is not None else []

    def series(self, op_kind, processor_kind):
        window = self._data.get((op_kind, processor_kind))
        return window[1:] if window is not None else ([], [])

    def count(self, op_kind, processor_kind):
        return len(self.get(op_kind, processor_kind))

    def keys(self):
        return list(self._data)


def tuple_keyed_compute_seconds(profile, op_kind, processor_kind,
                                input_bytes):
    if "#" in op_kind:
        kind, _, algorithm = op_kind.partition("#")
        model = profile.algorithms[kind][algorithm][processor_kind]
        return model.seconds(input_bytes)
    try:
        model = profile.costs[(op_kind, processor_kind)]
    except KeyError:
        raise KeyError(
            "no cost model for {} on {}".format(op_kind, processor_kind)
        )
    return model.seconds(input_bytes)


class TupleKeyedModel:
    def __init__(self, profile, min_observations=8, refit_interval=16):
        self.profile = profile
        self.store = TupleKeyedStore()
        self.min_observations = min_observations
        self.refit_interval = refit_interval
        self._fits = {}
        self._since_fit = {}

    def observe(self, op_kind, processor_kind, input_bytes, seconds,
                source="pure"):
        self.store.add(op_kind, processor_kind, input_bytes, seconds,
                       source=source)
        key = (op_kind, processor_kind)
        self._since_fit[key] = self._since_fit.get(key, 0) + 1
        if (key not in self._fits
                or self._since_fit[key] >= self.refit_interval):
            self._refit(key)

    def _refit(self, key):
        input_bytes, seconds = self.store.series(*key)
        if len(input_bytes) < self.min_observations:
            return
        x = np.array(input_bytes)
        y = np.array(seconds)
        if np.ptp(x) == 0:
            self._fits[key] = (float(y.mean()), 0.0)
        else:
            design = np.vstack([np.ones_like(x), x]).T
            (a, b), *_ = np.linalg.lstsq(design, y, rcond=None)
            self._fits[key] = (float(a), float(b))
        self._since_fit[key] = 0

    def is_learned(self, op_kind, processor_kind):
        return (op_kind, processor_kind) in self._fits

    def estimate(self, op_kind, processor_kind, input_bytes):
        fit = self._fits.get((op_kind, processor_kind))
        if fit is None:
            return tuple_keyed_compute_seconds(
                self.profile, op_kind, processor_kind, input_bytes)
        a, b = fit
        return max(a + b * input_bytes, 0.0)


def tuple_keyed_choose_algorithm(cost_model, profile, op_kind,
                                 processor_kind, input_bytes):
    names = profile.algorithm_names(op_kind)
    if not names:
        return op_kind, cost_model.estimate(
            op_kind, processor_kind, input_bytes)
    best_key = op_kind
    best_estimate = float("inf")
    for name in names:
        key = "{}#{}".format(op_kind, name)
        estimate = cost_model.estimate(key, processor_kind, input_bytes)
        if estimate < best_estimate:
            best_key = key
            best_estimate = estimate
    return best_key, best_estimate


def cost_keys(profile):
    """Every (cost key, processor kind) the profile has a curve for:
    plain kinds and ``kind#algorithm`` variants."""
    keys = list(profile.costs)
    for kind, variants in profile.algorithms.items():
        for name, pair in variants.items():
            keys.extend(("{}#{}".format(kind, name), processor_kind)
                        for processor_kind in pair)
    return keys


def observation_stream(profile, seed, length):
    """Seeded observations over every key of ``profile``, a quarter of
    them on one hot key (its window wraps), sizes repeating now and
    then (degenerate fits) and times unlike the analytical curves."""
    rng = random.Random(seed)
    keys = cost_keys(profile)
    hot = keys[rng.randrange(len(keys))]
    sizes = [float(2 ** rng.randint(8, 30)) for _ in range(6)]
    for _ in range(length):
        op_kind, processor_kind = (
            hot if rng.random() < 0.25 else rng.choice(keys))
        size = rng.choice(sizes) if rng.random() < 0.5 else rng.uniform(
            1e3, 1e9)
        seconds = rng.uniform(0.5, 1.5) * (1e-4 + size * rng.choice(
            (2e-9, 5e-10)))
        yield (op_kind, processor_kind, size, seconds,
               "split" if rng.random() < 0.1 else "pure")


def assert_same_cost_state(model, oracle, profile, sizes):
    keys = cost_keys(profile) + [("selection#nope", ProcessorKind.CPU)]
    assert model.store.keys() == oracle.store.keys()  # same order
    for op_kind, processor_kind in keys:
        key = (op_kind, processor_kind)
        assert model.store.get(*key) == oracle.store.get(*key)
        assert (tuple(model.store.series(*key))
                == tuple(oracle.store.series(*key)))
        assert model.store.count(*key) == oracle.store.count(*key)
        assert model.is_learned(*key) == oracle.is_learned(*key)
        if op_kind == "selection#nope":
            continue
        for size in sizes:
            assert (model.estimate(op_kind, processor_kind, size)
                    == oracle.estimate(op_kind, processor_kind, size))
            assert (profile.compute_seconds(op_kind, processor_kind, size)
                    == tuple_keyed_compute_seconds(
                        profile, op_kind, processor_kind, size))
    for op_kind in OP_KINDS:
        for processor_kind in ProcessorKind:
            for size in sizes:
                assert (
                    choose_algorithm(model, profile, op_kind,
                                     processor_kind, size)
                    == tuple_keyed_choose_algorithm(
                        oracle, profile, op_kind, processor_kind, size))


class TestKeyingIsInvisible:
    @pytest.mark.parametrize("profile", [COGADB_PROFILE, OCELOT_PROFILE],
                             ids=lambda profile: profile.name)
    def test_same_answers_as_the_tuple_keyed_model(self, profile):
        model = LearnedCostModel(profile)
        oracle = TupleKeyedModel(profile)
        sizes = (0.0, 4096.0, 1e6, 3.5e8, float(GIB))
        assert_same_cost_state(model, oracle, profile, sizes)
        stream = observation_stream(profile, seed=16, length=4000)
        for step, observation in enumerate(stream, 1):
            model.observe(*observation)
            oracle.observe(*observation)
            op_kind, processor_kind, size = observation[:3]
            assert (model.estimate(op_kind, processor_kind, size)
                    == oracle.estimate(op_kind, processor_kind, size))
            if step % 500 == 0:
                assert_same_cost_state(model, oracle, profile, sizes)
        counts = [oracle.store.count(*key) for key in cost_keys(profile)]
        assert max(counts) == 512 and min(counts) >= 8  # wrapped; all fitted
        assert all(model.is_learned(*key) for key in cost_keys(profile))

    def test_unknown_kind_raises_the_same_key_error(self):
        for processor_kind in ProcessorKind:
            with pytest.raises(KeyError) as got:
                COGADB_PROFILE.compute_seconds("teleport", processor_kind, 1)
            with pytest.raises(KeyError) as want:
                tuple_keyed_compute_seconds(
                    COGADB_PROFILE, "teleport", processor_kind, 1)
            assert got.value.args == want.value.args
            assert "no cost model for teleport" in got.value.args[0]

    def test_a_profile_built_from_tuple_keyed_costs_still_works(self):
        # the public constructor takes the (kind, processor kind) table
        profile = EngineProfile(
            name="partial",
            costs={("scan", ProcessorKind.CPU):
                   COGADB_PROFILE.costs[("scan", ProcessorKind.CPU)]},
        )
        assert profile.compute_seconds("scan", ProcessorKind.CPU, GIB) == (
            COGADB_PROFILE.compute_seconds("scan", ProcessorKind.CPU, GIB))
        with pytest.raises(KeyError):
            profile.compute_seconds("scan", ProcessorKind.GPU, GIB)
        assert profile.algorithm_names("join") == ()
        assert dataclasses.replace(
            COGADB_PROFILE, name="renamed").compute_seconds(
                "join#hash_join", ProcessorKind.GPU, GIB) == (
            COGADB_PROFILE.compute_seconds(
                "join#hash_join", ProcessorKind.GPU, GIB))

    def test_no_set_of_processor_kinds_is_iterated_in_src(self):
        """Results must not come to depend on the hash of an enum
        member: nothing under ``src/`` builds a set of
        ``ProcessorKind`` members (iterating the enum class, a tuple or
        a dict keeps definition / insertion order)."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        pattern = re.compile(
            r"(\{\s*ProcessorKind\.\w+\s*(,|\}))"     # {ProcessorKind.X, ...}
            r"|((frozen)?set\([^)]*ProcessorKind)")   # set(ProcessorKind...)
        offenders = []
        for directory, _, files in os.walk(src):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    with open(path) as handle:
                        for number, line in enumerate(handle, 1):
                            if pattern.search(line):
                                offenders.append((path, number, line))
        assert offenders == []
        assert pattern.search("kinds = {ProcessorKind.CPU, ProcessorKind.GPU}")
        assert pattern.search("for kind in set(ProcessorKind):")
        assert pattern.search("frozenset((ProcessorKind.CPU,))")
        assert not pattern.search("{ProcessorKind.CPU: 1}")


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


def test_ablation_learned_vs_analytical_cost_model(monkeypatch):
    """HyPE bootstraps from the analytical profile and refines it with
    observed runtimes; with learning switched off (never enough
    observations to fit) run-time placement under Chopping must stay in
    the same league.  (``pytest -s`` prints the table EXPERIMENTS.md
    quotes.)"""
    from repro.harness import experiments as E
    from repro.harness import run_workload
    from repro.harness.tables import ExperimentResult
    from repro.workloads import ssb

    database = E.ssb_database(10)
    queries = ssb.workload(database)
    result = ExperimentResult(
        "Ablation: learned vs. analytical cost model (chopping)")
    learned_init = LearnedCostModel.__init__

    def analytical_init(self, profile, store=None, min_observations=8,
                        refit_interval=16):
        learned_init(self, profile, store, min_observations=10 ** 9,
                     refit_interval=refit_interval)

    for mode, init in (("learned", learned_init),
                       ("analytical", analytical_init)):
        monkeypatch.setattr(LearnedCostModel, "__init__", init)
        run = run_workload(database, queries, "chopping",
                           config=E.FULL_CONFIG, users=10, repetitions=3)
        result.add(cost_model=mode, seconds=run.seconds,
                   aborts=run.metrics.aborts,
                   h2d_seconds=run.metrics.cpu_to_gpu_seconds)
    print()
    result.print()
    seconds = {row["cost_model"]: row["seconds"] for row in result.rows}
    # both run; the learned model must not be catastrophically worse
    assert seconds["learned"] <= seconds["analytical"] * 1.5
