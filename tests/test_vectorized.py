"""Tests for the vector-at-a-time processing model (Sec. 5.5)."""

import random

import pytest

from tests.conftest import make_context, random_selection_plan
from repro.core import STRATEGY_NAMES
from repro.core.placement import DataDrivenRuntime, RuntimeHype
from repro.engine import Planner
from repro.engine.execution import VectorizedExecutor, execute_functional
from repro.engine.execution.vectorized import Pipeline, build_pipelines
from repro.engine.operators import (
    GroupByAggregate,
    HashJoin,
    RefineSelect,
    ScanSelect,
)
from repro.harness import run_workload
from repro.hardware import SystemConfig
from repro.hardware.calibration import GIB, MIB
from repro.sql import bind
from repro.workloads import micro, sql_workload, ssb, tpch


JOIN_SQL = (
    "select region, sum(amount) as s from sales, store "
    "where skey = id and amount < 40 group by region order by s desc"
)


def make_plan(db, sql=JOIN_SQL, name="q"):
    return Planner(db).plan(bind(sql, db, name=name))


def oracle_pipelines(plan):
    """``build_pipelines`` as it was first written: one branch per
    operator class.  The generic walk over declared roles is checked
    against it."""
    chains = []

    def walk(op):
        if isinstance(op, HashJoin):
            probe_chain = walk(op.children[0])
            build_chain = walk(op.children[1])
            # the build side breaks here: its chain materialises into
            # the join's hash table
            chains.append(build_chain)
            return probe_chain + [op]
        if isinstance(op, RefineSelect):
            return walk(op.children[0]) + [op]
        if isinstance(op, ScanSelect):
            return [op]
        # breaker: every child chain materialises before it runs
        for child in op.children:
            chains.append(walk(child))
        return [op]

    chains.append(walk(plan.root))
    return chains


class TestPipelineConstruction:
    def test_role_walk_equals_the_type_chain(self, ssb_db, tpch_db, toy_db):
        plans = [
            query.template_plan()
            for queries in (
                ssb.workload(ssb_db),
                tpch.workload(tpch_db),
                micro.serial_selection_workload(ssb_db),
                micro.parallel_selection_workload(ssb_db),
            )
            for query in queries
        ]
        assert len(plans) == 13 + 6 + 8 + 1
        # ... and bushy trees whose binary operator is a breaker
        plans += [random_selection_plan(random.Random(seed))
                  for seed in range(6)]
        plans.append(make_plan(toy_db))
        def named(chains):  # the very operators, not just equal labels
            return [[(op.label, op.op_id) for op in chain]
                    for chain in chains]

        for plan in plans:
            assert named(build_pipelines(plan)) == named(
                oracle_pipelines(plan)), plan.name

    def test_join_plan_pipelines(self, toy_db):
        plan = make_plan(toy_db)
        chains = build_pipelines(plan)
        # dim-scan build chain, fact-scan+join driver chain, then the
        # breakers (groupby, sort) as their own chains
        assert len(chains) == 4
        driver = chains[1]
        assert isinstance(driver[0], ScanSelect)
        assert isinstance(driver[-1], HashJoin)
        assert isinstance(chains[2][0], GroupByAggregate)

    def test_selection_chain_is_one_pipeline(self, ssb_db):
        plan = micro.build_parallel_selection_plan(ssb_db)
        chains = build_pipelines(plan)
        # scan + 3 refines pipeline, then the (host) materialisation
        assert len(chains) == 2
        assert len(chains[0]) == 4

    def test_chain_order_respects_dependencies(self, tpch_db):
        from repro.workloads import tpch

        plan = Planner(tpch_db).plan(
            bind(tpch.QUERIES["Q5"], tpch_db, name="Q5")
        )
        chains = build_pipelines(plan)
        seen = set()
        for chain in chains:
            for op in chain:
                for child in op.children:
                    assert child.op_id in seen or child in chain
                seen.add(op.op_id)

    def test_pipeline_required_columns_union(self, toy_db):
        plan = make_plan(toy_db)
        driver = Pipeline(build_pipelines(plan)[1])
        assert "sales.amount" in driver.required_columns()
        assert "sales.skey" in driver.required_columns()


class TestVectorizedExecution:
    def run_vectorized(self, db, plan, strategy, config=None):
        env, hw, ctx = make_context(db, config)
        if strategy.uses_data_placement:
            for device in hw.gpus:
                for column in db.columns():
                    device.cache.admit(column.key, column.nominal_bytes,
                                       pinned=True)
        executor = VectorizedExecutor(ctx, strategy)
        process = executor.submit(plan)
        env.run()
        return process.value, hw, env

    def test_results_identical_to_operator_at_a_time(self, toy_db):
        expected = execute_functional(make_plan(toy_db), toy_db)
        for strategy in (RuntimeHype(), DataDrivenRuntime()):
            result, hw, env = self.run_vectorized(
                toy_db, make_plan(toy_db), strategy
            )
            assert (result.payload.row_tuples()
                    == expected.payload.row_tuples()), strategy.name

    def test_root_result_lands_on_host_and_heap_is_clean(self, toy_db):
        result, hw, env = self.run_vectorized(
            toy_db, make_plan(toy_db), DataDrivenRuntime()
        )
        assert result.location == "cpu"
        assert hw.gpus[0].heap.used == 0

    def test_streaming_avoids_column_staging(self, toy_db):
        """Vectors stream: uncached inputs never occupy the heap."""
        env, hw, ctx = make_context(toy_db)  # cold cache
        executor = VectorizedExecutor(ctx, RuntimeHype())
        peaks = []
        original = hw.gpus[0].heap.allocate

        def tracking(nbytes, owner="?"):
            allocation = original(nbytes, owner)
            peaks.append(hw.gpus[0].heap.used)
            return allocation

        hw.gpus[0].heap.allocate = tracking
        process = executor.submit(make_plan(toy_db))
        env.run()
        column_bytes = toy_db.column("sales.amount").nominal_bytes
        # heap peaks stay far below a staged column (only breaker
        # outputs are materialised)
        assert all(peak < column_bytes for peak in peaks)

    def test_vectorized_never_slower_than_either_pure_backend(self, toy_db):
        """Cost-based pipeline placement with vector splitting picks
        the better side of each pipeline and overlaps transfers, so it
        beats (or matches) both pure operator-model backends."""
        # one repetition: the operator model must not benefit from
        # warming the cache across repetitions (streaming never caches)
        queries = sql_workload(toy_db, {"q": JOIN_SQL})
        pure_cpu = run_workload(toy_db, queries, "cpu_only",
                                warm_cache=False, repetitions=1)
        pure_gpu = run_workload(toy_db, queries, "gpu_only",
                                warm_cache=False, repetitions=1)
        vectorized = run_workload(toy_db, queries, "runtime",
                                  warm_cache=False, repetitions=1,
                                  processing_model="vectorized")
        assert vectorized.seconds <= min(
            pure_cpu.seconds, pure_gpu.seconds
        ) * 1.1

    def test_breaker_heap_contention_persists(self):
        """Sec. 5.5: heap contention is reduced to pipeline breakers,
        but a device whose heap cannot hold the breaker outputs still
        aborts under concurrency."""
        from repro.harness import experiments as E

        database = E.ssb_database(10)
        # a cache that holds the hot set next to an (artificially)
        # tiny operator heap
        config = SystemConfig(
            gpu_memory_bytes=int(1.55 * GIB),
            gpu_cache_bytes=int(1.5 * GIB),
        )
        queries = ssb.workload(database, ["Q3.1"])
        run = run_workload(database, queries, "data_driven_chopping",
                           config=config, users=4, repetitions=4,
                           processing_model="vectorized")
        assert run.metrics.aborts > 0  # the breakers still contend

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_all_strategies_supported(self, toy_db, strategy):
        queries = sql_workload(toy_db, {"q": JOIN_SQL})
        expected = execute_functional(
            queries[0].template_plan(), toy_db
        ).payload.row_tuples()
        run = run_workload(toy_db, queries, strategy, users=2,
                           repetitions=2, processing_model="vectorized",
                           collect_results=True)
        assert run.results["q"].row_tuples() == expected, strategy

    def test_invalid_processing_model_rejected(self, toy_db):
        queries = sql_workload(toy_db, {"q": JOIN_SQL})
        with pytest.raises(ValueError):
            run_workload(toy_db, queries, "cpu_only",
                         processing_model="quantum")

    def test_split_uses_both_processors(self, toy_db):
        env, hw, ctx = make_context(toy_db)
        for column in toy_db.columns():
            hw.gpu_cache.admit(column.key, column.nominal_bytes, pinned=True)
        executor = VectorizedExecutor(ctx, RuntimeHype())
        process = executor.submit(make_plan(toy_db))
        env.run()
        busy = hw.metrics.busy_seconds
        assert busy.get("gpu", 0) > 0
        assert busy.get("cpu", 0) > 0  # the host took a vector share


def test_extension_operator_vs_vector_at_a_time():
    """Sec. 5.5: under vectorized execution "heap contention is reduced
    to pipeline-breaking operators, but for a reasonably complex query
    workload the DBMS is still required to deal with this problem".
    The SSB workload under both processing models.  (``pytest -s``
    prints the table EXPERIMENTS.md quotes.)"""
    from repro.harness import experiments as E
    from repro.harness.tables import ExperimentResult

    database = E.ssb_database(10)
    queries = ssb.workload(database)
    result = ExperimentResult(
        "Extension: operator-at-a-time vs vector-at-a-time (SSB, SF 10)")
    for model in ("operator", "vectorized"):
        for users in (1, 10):
            run = run_workload(database, queries, "data_driven_chopping",
                               config=E.FULL_CONFIG, users=users,
                               repetitions=2, processing_model=model)
            result.add(model=model, users=users, seconds=run.seconds,
                       h2d_seconds=run.metrics.cpu_to_gpu_seconds,
                       aborts=run.metrics.aborts,
                       peak_heap_gib=run.metrics.peak_heap_bytes / GIB)
    print()
    result.print()
    rows = {(row["model"], row["users"]): row for row in result.rows}
    # pipelines materialise only at breakers: the peak heap demand is
    # lower than the operator model's footprints
    assert (rows[("vectorized", 10)]["peak_heap_gib"]
            <= rows[("operator", 10)]["peak_heap_gib"])
    # and the model change never breaks robustness (comparable time)
    assert (rows[("vectorized", 10)]["seconds"]
            <= rows[("operator", 10)]["seconds"] * 1.5)
