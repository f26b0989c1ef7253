"""Tests for the multi-co-processor extension (Sec. 6.3 scale-up)."""

import pytest

from tests.conftest import make_context
from repro.core import ChoppingExecutor, DataPlacementManager, get_strategy
from repro.core.placement import DataDrivenRuntime, RuntimeHype
from repro.engine import Planner
from repro.engine.execution import execute_functional
from repro.harness import run_workload
from repro.hardware import DeviceCache, HardwareSystem, SystemConfig
from repro.hardware.calibration import GIB, MIB
from repro.sim import Environment
from repro.sql import bind
from repro.workloads import ssb


JOIN_SQL = (
    "select region, sum(amount) as s from sales, store "
    "where skey = id and amount < 40 group by region"
)


def multi_config(gpus=2, **kwargs):
    defaults = dict(gpu_count=gpus, gpu_memory_bytes=1 * GIB,
                    gpu_cache_bytes=256 * MIB)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


class TestHardwareSystem:
    def test_device_naming(self):
        env = Environment()
        hardware = HardwareSystem(env, multi_config(3))
        assert hardware.gpu_names == ["gpu", "gpu2", "gpu3"]
        assert hardware.device("gpu2").processor.name == "gpu2"
        with pytest.raises(KeyError):
            hardware.device("gpu9")

    def test_first_device_aliases(self):
        env = Environment()
        hardware = HardwareSystem(env, multi_config(2))
        assert hardware.gpu is hardware.gpus[0].processor
        assert hardware.gpu_cache is hardware.gpus[0].cache

    def test_devices_have_independent_memory(self):
        env = Environment()
        hardware = HardwareSystem(env, multi_config(2))
        hardware.gpus[0].heap.allocate(100)
        assert hardware.gpus[1].heap.used == 0
        hardware.gpus[0].cache.admit("x", 10)
        assert "x" not in hardware.gpus[1].cache

    def test_processor_list_includes_all(self):
        env = Environment()
        hardware = HardwareSystem(env, multi_config(2))
        names = [p.name for p in hardware.processors]
        assert names == ["cpu", "gpu", "gpu2"]

    def test_gpu_count_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(gpu_count=0)


class TestMultiDevicePlacementManager:
    def make_manager(self, db, n_caches, capacity):
        caches = [DeviceCache(capacity) for _ in range(n_caches)]
        return DataPlacementManager(db, caches=caches, policy="lfu"), caches

    def test_small_columns_replicated(self, toy_db):
        toy_db.statistics.reset()
        for column in toy_db.columns():
            toy_db.statistics.record_access(column.key)
        # store columns are tiny relative to this capacity
        manager, caches = self.make_manager(toy_db, 2, 10 * MIB)
        manager.apply_placement()
        for cache in caches:
            assert "store.id" in cache

    def test_large_columns_partitioned_not_duplicated(self, toy_db):
        toy_db.statistics.reset()
        for column in toy_db.columns():
            toy_db.statistics.record_access(column.key)
        # sales columns are 4 MB nominal; capacity of one column each
        manager, caches = self.make_manager(toy_db, 2, 5 * MIB)
        manager.apply_placement()
        fact_keys = {"sales.skey", "sales.amount", "sales.price"}
        placements = [set(c.keys) & fact_keys for c in caches]
        assert not placements[0] & placements[1]  # disjoint
        assert placements[0] | placements[1]  # something cached

    def test_single_cache_keeps_prefix_semantics(self, toy_db):
        toy_db.statistics.reset()
        for i, column in enumerate(toy_db.table("sales").columns):
            for _ in range(3 - i):
                toy_db.statistics.record_access(column.key)
        manager, caches = self.make_manager(toy_db, 1, 5 * MIB)
        cached = manager.apply_placement()
        assert cached == ["sales.skey"]  # the hottest one that fits

    def test_cache_and_caches_mutually_exclusive(self, toy_db):
        with pytest.raises(ValueError):
            DataPlacementManager(toy_db)
        with pytest.raises(ValueError):
            DataPlacementManager(toy_db, cache=DeviceCache(10),
                                 caches=[DeviceCache(10)])


class TestMultiGpuExecution:
    def test_results_correct_across_devices(self, toy_db):
        env, hw, ctx = make_context(toy_db, multi_config(3))
        for device in hw.gpus:
            for column in toy_db.columns():
                device.cache.admit(column.key, column.nominal_bytes,
                                   pinned=True)
        plan = Planner(toy_db).plan(bind(JOIN_SQL, toy_db, name="q"))
        expected = execute_functional(plan, toy_db).payload.row_tuples()
        chopper = ChoppingExecutor(ctx, RuntimeHype())
        done = chopper.submit(plan.clone())
        env.run()
        assert done.value.payload.row_tuples() == expected

    def test_chopping_has_a_queue_per_device(self, toy_db):
        env, hw, ctx = make_context(toy_db, multi_config(3))
        chopper = ChoppingExecutor(ctx, RuntimeHype())
        assert set(chopper.ready) == {"cpu", "gpu", "gpu2", "gpu3"}

    def test_data_driven_hops_to_the_device_with_the_columns(self, toy_db):
        env, hw, ctx = make_context(toy_db, multi_config(2))
        # partition the fact columns by hand: amount on gpu, skey on gpu2
        first, second = hw.gpus
        for key in ("sales.amount",):
            column = toy_db.column(key)
            first.cache.admit(key, column.nominal_bytes, pinned=True)
        for key in ("sales.skey", "store.id", "store.region"):
            column = toy_db.column(key)
            second.cache.admit(key, column.nominal_bytes, pinned=True)
        strategy = DataDrivenRuntime()
        plan = Planner(toy_db).plan(bind(JOIN_SQL, toy_db, name="q"))
        scan = [op for op in plan.leaves if op.required_columns()][0]
        assert strategy.choose_processor(ctx, scan, []) == "gpu"
        # execute the scan on gpu, then ask about the join: its key
        # columns live on gpu2, so the intermediate hops devices
        scan_result = scan.run(toy_db, [])
        scan_result.location = "gpu"
        join = [op for op in plan.operators if op.kind == "join"][0]
        bare = [c for c in join.children if not c.required_columns()][0]
        bare_result = bare.run(toy_db, [])
        bare_result.location = "gpu"
        children = [scan_result, bare_result]
        if join.children[0].required_columns():
            children = [scan_result, bare_result]
        else:
            children = [bare_result, scan_result]
        assert strategy.choose_processor(ctx, join, children) == "gpu2"

    def test_cpu_child_still_ends_the_chain(self, toy_db):
        env, hw, ctx = make_context(toy_db, multi_config(2))
        for device in hw.gpus:
            for column in toy_db.columns():
                device.cache.admit(column.key, column.nominal_bytes,
                                   pinned=True)
        strategy = DataDrivenRuntime()
        plan = Planner(toy_db).plan(bind(JOIN_SQL, toy_db, name="q"))
        join = [op for op in plan.operators if op.kind == "join"][0]
        results = [child.run(toy_db, []) for child in join.children]
        for result in results:
            result.location = "cpu"
        assert strategy.choose_processor(ctx, join, results) == "cpu"

    def test_cross_device_transfer_is_charged_both_ways(self, toy_db):
        from repro.engine.execution import QueryContext, execute_operator
        from repro.engine.expressions import ColumnRef, Comparison, Literal
        from repro.engine.operators import RefineSelect, ScanSelect

        env, hw, ctx = make_context(toy_db, multi_config(2))
        for device in hw.gpus:
            for column in toy_db.columns():
                device.cache.admit(column.key, column.nominal_bytes,
                                   pinned=True)
        amount = ColumnRef("sales", "amount")
        scan = ScanSelect("sales", Comparison("<", amount, Literal(60)))
        refine = RefineSelect(scan, "sales",
                              Comparison(">", amount, Literal(5)))

        def run():
            qctx = QueryContext(env, "q")
            first = yield from execute_operator(
                ctx, scan, [], "gpu", qctx=qctx,
                input_bytes=scan.input_nominal_bytes(ctx.database, []))
            assert first.location == "gpu"
            second = yield from execute_operator(
                ctx, refine, [first], "gpu2", qctx=qctx,
                input_bytes=refine.input_nominal_bytes(ctx.database,
                                                       [first]))
            assert second.location == "gpu2"
            second.release_device_memory()

        env.process(run())
        env.run()
        # the intermediate crossed: device -> host -> other device
        assert hw.metrics.gpu_to_cpu_bytes > 0
        assert hw.metrics.cpu_to_gpu_bytes > 0


class TestMultiGpuWorkloads:
    @pytest.mark.parametrize("strategy",
                             ("chopping", "data_driven_chopping", "runtime"))
    def test_results_identical_with_many_gpus(self, ssb_db, strategy):
        queries = ssb.workload(ssb_db, ["Q1.1", "Q2.1", "Q3.3"])
        expected = {
            q.name: execute_functional(
                q.template_plan(), ssb_db
            ).payload.row_tuples()
            for q in queries
        }
        config = SystemConfig(gpu_count=3, gpu_memory_bytes=4 * GIB,
                              gpu_cache_bytes=int(1.5 * GIB))
        run = run_workload(ssb_db, queries, strategy, config=config,
                           users=3, repetitions=2, collect_results=True)
        for name, rows in expected.items():
            assert run.results[name].row_tuples() == rows, (strategy, name)

    def test_scale_up_improves_scarce_resources(self):
        """Sec. 6.3: more co-processors handle larger databases.
        (``pytest -s`` prints the table; ``repro figures multigpu`` the
        full sweep EXPERIMENTS.md quotes.)"""
        from repro.harness import experiments as E

        result = E.multi_gpu_scaling(
            gpu_counts=(1, 4), users=10, repetitions=1,
            strategies=("data_driven_chopping",),
        )
        print()
        result.print()
        series = dict(result.series("gpus", "seconds", "strategy")[
            "data_driven_chopping"
        ])
        assert series[4] < series[1] * 0.8