"""Unit tests for the Critical Path optimizer and its cardinality
estimator."""

import copy
import dataclasses
import random

import pytest

from tests.conftest import make_context, random_selection_plan
from repro.core.data_placement import DataPlacementManager
from repro.core.placement import CriticalPath
from repro.core.placement.critical_path import _Template
from repro.core.placement.base import (
    PROCESSOR_KINDS,
    pending_transfer_seconds,
)
from repro.engine import Planner, caches, operators, plan_cache
from repro.engine.cardinality import estimate_selectivity
from repro.engine.execution import ExecutionContext, execute_functional
from repro.engine.expressions import ColumnRef, Comparison, Literal
from repro.engine.operators import (
    GroupByAggregate,
    HashJoin,
    Materialize,
    OpEstimate,
    RefineSelect,
    ScanSelect,
    TidIntersect,
)
from repro.engine.operators.base import TID_BYTES
from repro.hardware import SystemConfig
from repro.harness import runner
from repro.harness.experiments import clear_database_caches
from repro.sql import bind
from repro.storage.compression import compress_database
from repro.storage.epochs import EpochStore
from repro.workloads import micro, ssb, tpch


JOIN_SQL = (
    "select region, sum(amount) as s from sales, store "
    "where skey = id and amount < 40 group by region"
)


def make_plan(db, sql=JOIN_SQL):
    return Planner(db).plan(bind(sql, db, name="q"))


# -- the definition -----------------------------------------------------
#
# The costing as the optimizer was first written (dicts keyed by op_id, a
# fresh tree walk and fresh cost-model / link queries per candidate).
# ``CriticalPath.prepare_plan`` computes the same thing over flat arrays;
# these stay here as the reference it is checked against, float for float.

def oracle_sizes(ctx, plan):
    sizes = CriticalPath()._template(ctx, plan).sizes
    return {op.op_id: size for op, size in zip(plan.root.walk(), sizes)}


def oracle_assignments(plan, gpu_leaves):
    """Paths continue on the GPU until an operator whose children are
    not all on the GPU (or a host-only operator) is reached."""
    placement = {}
    for op in plan.root.walk():  # post order
        if op.cpu_only:
            placement[op.op_id] = "cpu"
        elif not op.children:
            placement[op.op_id] = "gpu" if op.op_id in gpu_leaves else "cpu"
        else:
            all_gpu = all(placement[c.op_id] == "gpu" for c in op.children)
            placement[op.op_id] = "gpu" if all_gpu else "cpu"
    return placement


def oracle_plan_cost(ctx, plan, gpu_leaves, estimates):
    """Estimated response time of the plan under an assignment."""
    placement = oracle_assignments(plan, gpu_leaves)
    finish = {}
    for op in plan.root.walk():  # post order
        ready = max((finish[c.op_id] for c in op.children), default=0.0)
        estimate = estimates[op.op_id]
        processor = placement[op.op_id]
        execution = ctx.cost_model.estimate(
            op.kind, PROCESSOR_KINDS[processor], estimate.input_bytes
        )
        transfer = pending_transfer_seconds(
            ctx, op, ctx.hardware.gpu_cache if processor == "gpu" else None,
            [(estimates[child.op_id].out_bytes, 1.0)
             for child in op.children
             if placement[child.op_id] != processor],
            contended=False,
        )
        finish[op.op_id] = ready + transfer + execution
    return finish[plan.root.op_id]


def oracle_prepare(ctx, plan, max_iterations=CriticalPath.max_iterations):
    """The greedy refinement over the definition: ``({op_id: processor},
    best cost)``."""
    estimates = oracle_sizes(ctx, plan)
    leaves = [op for op in plan.root.walk() if not op.children]
    current = frozenset()
    best_set = current
    best_cost = oracle_plan_cost(ctx, plan, current, estimates)
    for _ in range(min(len(leaves), max_iterations)):
        best_candidate = None
        best_candidate_cost = float("inf")
        for leaf in leaves:
            if leaf.op_id in current:
                continue
            candidate = current | {leaf.op_id}
            cost = oracle_plan_cost(ctx, plan, candidate, estimates)
            if cost < best_candidate_cost:
                best_candidate = frozenset(candidate)
                best_candidate_cost = cost
        if best_candidate is None:
            break
        current = best_candidate
        if best_candidate_cost < best_cost:
            best_cost = best_candidate_cost
            best_set = best_candidate
    return oracle_assignments(plan, best_set), best_cost


def assert_matches_oracle(ctx, plan, max_iterations=None):
    """``prepare_plan`` and the definition agree on every operator and on
    the cost, exactly; returns the placements."""
    strategy = CriticalPath()
    if max_iterations is not None:
        strategy.max_iterations = max_iterations
    expected, expected_cost = oracle_prepare(
        ctx, plan, strategy.max_iterations)
    cost = strategy.prepare_plan(ctx, plan)
    placed = {op.op_id: op.placement for op in plan.operators}
    assert placed == expected, plan.name
    assert cost == expected_cost, plan.name  # ==, not approx
    return placed


class TestCardinalityEstimation:
    def test_no_predicate_is_one(self, toy_db):
        assert estimate_selectivity(toy_db, "sales", None) == 1.0

    def test_uniform_predicate(self, toy_db):
        predicate = Comparison(
            "<", ColumnRef("sales", "amount"), Literal(50)
        )
        estimate = estimate_selectivity(toy_db, "sales", predicate)
        # amount uniform in [1, 100)
        assert 0.3 < estimate < 0.7

    def test_impossible_predicate(self, toy_db):
        predicate = Comparison(
            ">", ColumnRef("sales", "amount"), Literal(10**9)
        )
        assert estimate_selectivity(toy_db, "sales", predicate) == 0.0

    def test_small_tables_use_all_rows(self, toy_db):
        predicate = Comparison("<", ColumnRef("store", "size"), Literal(100))
        estimate = estimate_selectivity(toy_db, "store", predicate)
        # store has 20 rows, sizes 0..190: exactly 10 below 100
        assert estimate == pytest.approx(0.5)


class TestOpEstimates:
    def test_join_cardinality_propagates_build_selectivity(self, toy_db):
        env, hw, ctx = make_context(toy_db)
        plan = make_plan(
            toy_db,
            "select sum(amount) as s from sales, store "
            "where skey = id and size < 100",
        )
        cp = CriticalPath()
        estimates = cp._template(ctx, plan).sizes
        join = [op for op in plan.operators if isinstance(op, HashJoin)][0]
        join_estimate = estimates[plan.operators.index(join)]
        fact_rows = toy_db.table("sales").nominal_rows
        # half the stores survive the filter: ~half the fact rows join
        assert join_estimate.out_rows == pytest.approx(
            fact_rows * 0.5, rel=0.1
        )

    def test_filtered_scan_out_rows(self, toy_db):
        env, hw, ctx = make_context(toy_db)
        plan = make_plan(
            toy_db, "select amount from sales where amount < 40"
        )
        cp = CriticalPath()
        estimates = cp._template(ctx, plan).sizes
        scan = plan.leaves[0]
        fact_rows = toy_db.table("sales").nominal_rows
        assert estimates[plan.operators.index(scan)].out_rows == pytest.approx(
            fact_rows * 0.4, rel=0.2
        )

    def test_bare_scan_has_zero_out_bytes(self, toy_db):
        env, hw, ctx = make_context(toy_db)
        plan = make_plan(toy_db)
        cp = CriticalPath()
        estimates = cp._template(ctx, plan).sizes
        bare = [
            op for op in plan.leaves
            if isinstance(op, ScanSelect) and op.predicate is None
        ]
        for op in bare:
            assert estimates[plan.operators.index(op)].out_bytes == 0.0


class TestCriticalPathPlacement:
    def test_cold_cache_keeps_large_transfers_off_gpu(self, toy_db):
        env, hw, ctx = make_context(toy_db)
        plan = make_plan(toy_db)
        CriticalPath().prepare_plan(ctx, plan)
        # with nothing cached, the fact-side selection (which would
        # require a 4 MB-nominal transfer) stays on the CPU
        fact_scan = [
            op for op in plan.leaves
            if isinstance(op, ScanSelect) and op.table == "sales"
            and op.predicate is not None
        ]
        for op in fact_scan:
            assert op.placement == "cpu"

    def test_hot_cache_promotes_the_join_pipeline(self, toy_db):
        env, hw, ctx = make_context(toy_db)
        for column in toy_db.columns():
            hw.gpu_cache.admit(column.key, column.nominal_bytes, pinned=True)
        plan = make_plan(toy_db)
        CriticalPath().prepare_plan(ctx, plan)
        join = [op for op in plan.operators if isinstance(op, HashJoin)][0]
        assert join.placement == "gpu"

    def test_every_operator_gets_a_placement(self, toy_db):
        env, hw, ctx = make_context(toy_db)
        plan = make_plan(toy_db)
        CriticalPath().prepare_plan(ctx, plan)
        assert all(op.placement in ("cpu", "gpu") for op in plan.operators)

    def test_host_only_operators_stay_on_cpu(self, toy_db):
        env, hw, ctx = make_context(toy_db)
        for column in toy_db.columns():
            hw.gpu_cache.admit(column.key, column.nominal_bytes, pinned=True)
        plan = make_plan(
            toy_db, "select amount, price from sales where amount < 40"
        )
        CriticalPath().prepare_plan(ctx, plan)
        for op in plan.operators:
            if op.cpu_only:
                assert op.placement == "cpu"

    def test_iteration_budget_respected(self, toy_db):
        env, hw, ctx = make_context(toy_db)
        plan = make_plan(toy_db)
        strategy = CriticalPath()
        strategy.max_iterations = 0
        strategy.prepare_plan(ctx, plan)
        # no promotions possible: pure CPU plan
        assert all(op.placement == "cpu" for op in plan.operators)

    def test_plan_cost_decreases_or_stays_with_useful_promotions(self, toy_db):
        env, hw, ctx = make_context(toy_db)
        for column in toy_db.columns():
            hw.gpu_cache.admit(column.key, column.nominal_bytes, pinned=True)
        plan = make_plan(toy_db)
        estimates = oracle_sizes(ctx, plan)
        cpu_cost = oracle_plan_cost(ctx, plan, frozenset(), estimates)
        all_leaves = frozenset(l.op_id for l in plan.leaves)
        gpu_cost = oracle_plan_cost(ctx, plan, all_leaves, estimates)
        assert gpu_cost < cpu_cost  # hot cache: the GPU plan wins
        # and the optimizer finds a plan at least that good
        assert CriticalPath().prepare_plan(ctx, plan) <= gpu_cost


# -- flat costing == the definition, over the real templates ---------------

CACHE_STATES = ("empty", "hot_set", "random_1", "random_2", "random_3")


@pytest.fixture(scope="module")
def benchmarks_warm():
    """``{name: (database, queries, learned cost model)}`` after one warm
    ``run_workload`` each — which also leaves the access statistics the
    data-placement manager ranks by.  Scale factor 10 (in nominal bytes;
    a few thousand actual rows): large enough that the co-processor
    wins some operators and loses others."""
    warm = {}
    for name, module in (("ssb", ssb), ("tpch", tpch)):
        database = module.generate(10, data_scale=1e-4, seed=5)
        queries = module.workload(database)
        contexts = []
        build = runner.build_platform

        def capture(*args, **kwargs):
            contexts.append(build(*args, **kwargs))
            return contexts[-1]

        runner.build_platform = capture
        try:
            runner.run_workload(database, queries, "critical_path")
        finally:
            runner.build_platform = build
        (ctx,) = contexts
        assert any(ctx.cost_model.is_learned(*key)
                   for key in ctx.cost_model.store.keys())
        warm[name] = (database, queries, ctx.cost_model)
    return warm


def context_in_state(database, queries, state, cost_model):
    """A fresh platform whose GPU cache is in ``state``."""
    workload_bytes = sum(
        database.column(key).nominal_bytes
        for key in set().union(*(q.required_columns() for q in queries))
    )
    # the hot set is what fits in half of what the workload reads, so it
    # is a proper subset; the random subsets get room for all they draw
    config = dataclasses.replace(
        SystemConfig(), gpu_memory_bytes=2 * database.nominal_bytes,
        gpu_cache_bytes=(workload_bytes // 2 if state == "hot_set"
                         else database.nominal_bytes))
    env, hardware, _ = make_context(database, config)
    ctx = ExecutionContext(hardware, database, cost_model=cost_model)
    if state == "hot_set":
        DataPlacementManager(
            database, caches=[hardware.gpu_cache]).apply_placement()
    elif state.startswith("random"):
        rng = random.Random(state)
        for column in database.columns():
            if rng.random() < 0.5:
                assert hardware.gpu_cache.admit(
                    column.key, column.nominal_bytes)
    assert (len(hardware.gpu_cache) > 0) == (state != "empty")
    return ctx


class TestFlatCostingEqualsDefinition:
    @pytest.mark.parametrize("model", ["analytical", "learned"])
    @pytest.mark.parametrize("state", CACHE_STATES)
    def test_every_template(self, benchmarks_warm, state, model):
        seen = set()
        for database, queries, learned in benchmarks_warm.values():
            ctx = context_in_state(
                database, queries, state,
                learned if model == "learned" else None)
            assert (ctx.cost_model is learned) == (model == "learned")
            for query in queries:
                placed = assert_matches_oracle(ctx, query.instantiate())
                seen.update(placed.values())
        assert seen == {"cpu", "gpu"}  # the decisions are real ones

    @pytest.mark.parametrize("seed", range(6))
    def test_random_selection_trees(self, toy_db, seed):
        """Bushy trees of 6-10 leaves: binary operators make single
        promotions plateau, and a small budget cuts the search short."""
        rng = random.Random(seed)
        plan = random_selection_plan(rng)
        assert len(plan.leaves) >= 6
        env, hw, ctx = make_context(toy_db)
        for column in toy_db.columns():
            if rng.random() < 0.6:
                hw.gpu_cache.admit(column.key, column.nominal_bytes)
        full = assert_matches_oracle(ctx, plan)
        capped = assert_matches_oracle(ctx, plan, max_iterations=2)
        # two promotions cannot complete any path of a bushy tree: the
        # capped search stays below every binary operator
        assert sum(p == "gpu" for p in capped.values()) <= 2
        assert set(full.values()) <= {"cpu", "gpu"}


# -- per-class ``estimate`` == the type chain, over the real templates ------
#
# The size propagation as ``critical_path._sample`` first held it: one
# ``isinstance`` branch per operator class.  Each branch now lives on its
# class as ``estimate`` and ``_sample`` is a loop calling it; the chain
# stays here as the reference, same float operations in the same order.

def oracle_sample(database, plan):
    estimates = {}  # filled in post order
    for op in plan.operators:  # post order
        children = [estimates[c.op_id] for c in op.children]
        if isinstance(op, ScanSelect):
            table = database.table(op.table)
            selectivity = estimate_selectivity(
                database, op.table, op.predicate
            )
            out_rows = selectivity * table.nominal_rows
            out_bytes = (
                out_rows * TID_BYTES if op.predicate is not None else 0.0
            )
            estimates[op.op_id] = OpEstimate(
                op.input_nominal_bytes(database, []), out_rows, out_bytes,
            )
        elif isinstance(op, RefineSelect):
            (child,) = children
            selectivity = estimate_selectivity(
                database, op.table, op.predicate
            )
            width = TID_BYTES + sum(
                database.column(k).ctype.itemsize
                for k in op.required_columns()
            )
            estimates[op.op_id] = OpEstimate(
                child.out_rows * width,
                child.out_rows * selectivity,
                child.out_rows * selectivity * TID_BYTES,
            )
        elif isinstance(op, TidIntersect):
            smaller = min(c.out_rows for c in children)
            estimates[op.op_id] = OpEstimate(
                sum(c.out_bytes for c in children),
                smaller * 0.5,
                smaller * 0.5 * TID_BYTES,
            )
        elif isinstance(op, HashJoin):
            probe, build = children
            build_rows = database.table(op.build_key.table).nominal_rows
            build_selectivity = (
                min(build.out_rows / build_rows, 1.0) if build_rows else 1.0
            )
            key_width = database.column(op.probe_key.key).ctype.itemsize
            out_rows = probe.out_rows * build_selectivity
            estimates[op.op_id] = OpEstimate(
                (probe.out_rows + build.out_rows)
                * (TID_BYTES + key_width),
                out_rows,
                out_rows * 2 * TID_BYTES,
            )
        elif isinstance(op, GroupByAggregate):
            (child,) = children
            width = TID_BYTES * (
                len(op.group_refs) + max(len(op.aggregates), 1)
            )
            out_rows = min(child.out_rows, 10_000.0)
            estimates[op.op_id] = OpEstimate(
                child.out_rows * width, out_rows, out_rows * 2 * width
            )
        elif isinstance(op, Materialize):
            (child,) = children
            width = sum(
                database.column(k).ctype.itemsize
                for k in op.required_columns()
            ) or TID_BYTES
            estimates[op.op_id] = OpEstimate(
                child.out_rows * width,
                child.out_rows,
                child.out_rows * width,
            )
        else:  # Sort, Limit and friends: volume-preserving
            (child,) = children
            estimates[op.op_id] = OpEstimate(
                child.out_bytes, child.out_rows, child.out_bytes
            )
    position = {op_id: i for i, op_id in enumerate(estimates)}
    return _Template(
        tuple(estimates.values()),
        tuple(tuple(position[c.op_id] for c in op.children)
              for op in plan.operators),
        tuple(position[leaf.op_id] for leaf in plan.leaves),
        tuple(op.cpu_only for op in plan.operators),
    )


def assert_template_matches_oracle(database, plan):
    """``_sample`` and the type chain agree field for field — values
    *and* their types (an int volume stays an int); returns the classes
    the plan covered."""
    got = CriticalPath._sample(database, plan)
    want = oracle_sample(database, plan)
    assert got == want, plan.name
    for op, size, expected in zip(plan.operators, got.sizes, want.sizes):
        for field in OpEstimate._fields:
            assert type(getattr(size, field)) is type(
                getattr(expected, field)), (plan.name, op.label, field)
    return {type(op).__name__ for op in plan.operators}


class TestEstimatesEqualTheTypeChain:
    def test_every_template(self, ssb_db, tpch_db, toy_db):
        templates = [
            (database, query.template_plan())
            for database, queries in (
                (ssb_db, ssb.workload(ssb_db)),
                (tpch_db, tpch.workload(tpch_db)),
                (ssb_db, micro.serial_selection_workload(ssb_db)),
                (ssb_db, micro.parallel_selection_workload(ssb_db)),
            )
            for query in queries
        ]
        assert len(templates) == 13 + 6 + 8 + 1
        # the frame-to-frame operators no shipped template plans
        templates += [(toy_db, make_plan(toy_db, sql)) for sql in (
            "select distinct region from store where size < 100",
            "select skey, sum(amount) as s from sales group by skey "
            "having s > 100 order by s desc limit 3",
        )]
        covered = set()
        for database, plan in templates:
            covered |= assert_template_matches_oracle(database, plan)
        assert covered == {
            "ScanSelect", "RefineSelect", "HashJoin", "GroupByAggregate",
            "Materialize", "Sort", "Limit", "Distinct", "FrameFilter"}

    @pytest.mark.parametrize("seed", range(6))
    def test_random_selection_trees(self, toy_db, seed):
        plan = random_selection_plan(random.Random(seed))
        covered = assert_template_matches_oracle(toy_db, plan)
        assert "TidIntersect" in covered


# -- the size memo: invalidated when it must be, invisible otherwise -------

@pytest.fixture()
def sampling_calls(monkeypatch):
    """Counts the predicate samplings the size estimator performs."""
    calls = []

    def spy(database, table, predicate):
        calls.append(table)
        return estimate_selectivity(database, table, predicate)

    monkeypatch.setattr(operators.scan, "estimate_selectivity", spy)
    return calls


class TestSizeMemo:
    def test_sampled_once_per_database_and_template(self, toy_db,
                                                    sampling_calls):
        env, hw, ctx = make_context(toy_db)
        template = make_plan(toy_db)
        CriticalPath().prepare_plan(ctx, template.clone())
        sampled = len(sampling_calls)
        assert sampled > 0
        # clones, and a distinct statement with the same structure
        CriticalPath().prepare_plan(ctx, template.clone())
        CriticalPath().prepare_plan(ctx, make_plan(toy_db))
        assert len(sampling_calls) == sampled
        assert len(caches.memo(toy_db, "placement_sizes")) == 1
        # another template is another entry
        CriticalPath().prepare_plan(
            ctx, make_plan(toy_db, "select amount from sales where amount < 9"))
        assert len(sampling_calls) > sampled
        assert len(caches.memo(toy_db, "placement_sizes")) == 2

    def test_recomputed_after_compression(self, toy_db, sampling_calls):
        env, hw, ctx = make_context(toy_db)
        plan = make_plan(toy_db)
        before = CriticalPath()._template(ctx, plan).sizes
        sampled = len(sampling_calls)
        compress_database(toy_db)
        assert len(caches.memo(toy_db, "placement_sizes")) == 0
        after = CriticalPath()._template(ctx, plan).sizes
        assert len(sampling_calls) == 2 * sampled
        assert after is not before

    def test_recomputed_after_clearing_database_caches(self, toy_db,
                                                       sampling_calls):
        env, hw, ctx = make_context(toy_db)
        plan = make_plan(toy_db)
        CriticalPath().prepare_plan(ctx, plan)
        sampled = len(sampling_calls)
        clear_database_caches()
        assert len(caches._memos) == 0  # no database keeps a memo
        CriticalPath().prepare_plan(ctx, plan)
        assert len(sampling_calls) == 2 * sampled

    def test_epoch_snapshots_do_not_share_estimates(self, toy_db):
        env, hw, ctx = make_context(toy_db)
        store = EpochStore(toy_db)
        base = store.head
        plan = make_plan(toy_db)
        old = CriticalPath()._template(ctx, plan).sizes
        pinned = store.pin()
        grown = store.advance(fraction=0.5, tables=["sales"])
        assert (grown.table("sales").nominal_rows
                > base.table("sales").nominal_rows)
        new = CriticalPath()._template(ctx.with_database(grown), plan).sizes
        scan = plan.operators.index(next(
            op for op in plan.leaves if op.predicate is not None))
        assert new[scan].input_bytes > old[scan].input_bytes
        assert new[scan].out_rows > old[scan].out_rows
        # the superseded snapshot keeps its entry while a query pins it
        assert len(caches.memo(base, "placement_sizes")) == 1
        assert store.unpin(pinned) == 1  # drained: retired
        assert len(caches.memo(base, "placement_sizes")) == 0
        assert len(caches.memo(grown, "placement_sizes")) == 1

    def test_plan_cache_counters_untouched(self, toy_db):
        env, hw, ctx = make_context(toy_db)
        template = make_plan(toy_db)
        execute_functional(template, toy_db)
        before = dict(plan_cache.stats)
        for _ in range(100):
            CriticalPath().prepare_plan(ctx, template.clone())
        assert plan_cache.stats == before

    def test_unfingerprinted_plans_are_not_memoised(self, toy_db,
                                                    sampling_calls):
        env, hw, ctx = make_context(toy_db)
        plan = make_plan(toy_db)
        plan.root.state_key = lambda: None  # opts out of fingerprints
        assert plan.root.fingerprint() is None
        CriticalPath().prepare_plan(ctx, plan)
        sampled = len(sampling_calls)
        CriticalPath().prepare_plan(ctx, plan)
        assert len(sampling_calls) == 2 * sampled
        assert len(caches.memo(toy_db, "placement_sizes")) == 0


class TestPlanShape:
    def test_clone_shares_what_is_immutable_only(self, toy_db):
        template = make_plan(toy_db)
        CriticalPath().prepare_plan(make_context(toy_db)[2], template)
        clone = template.clone()
        assert len(clone.operators) == len(template.operators)
        assert [len(op.children) for op in clone.operators] == [
            len(op.children) for op in template.operators]
        for original, twin in zip(template.operators, clone.operators):
            assert twin is not original
            assert twin.op_id > max(op.op_id for op in template.operators)
            assert original.placement in ("cpu", "gpu")
            assert twin.placement is None
            assert twin.column_keys() is original.column_keys()
            assert twin.required_columns() is original.required_columns()
            assert twin.column_keys() == tuple(
                sorted(twin.required_columns()))
        assert len(set(op.op_id for op in clone.operators)) == len(
            clone.operators)

    def test_clone_equals_a_shallow_copy_field_by_field(self, ssb_db,
                                                        tpch_db):
        """``clone`` builds its twins by hand; ``copy.copy`` — what it
        used before — stays here as the definition of 'shallow copy'."""
        templates = [(database, query.template_plan())
                     for database, module in ((ssb_db, ssb), (tpch_db, tpch))
                     for query in module.workload(database)]
        assert len(templates) >= 13 + 6
        memoised = 0
        for number, (database, template) in enumerate(templates):
            if number % 4 == 0:  # some templates carry memoised results
                execute_functional(template, database)
            template.root.fingerprint()
            clone = template.clone()
            assert clone.name == template.name
            assert clone.root is clone.operators[-1]
            twins = dict(zip(map(id, template.operators), clone.operators))
            for original, twin in zip(template.operators, clone.operators):
                oracle = copy.copy(original)
                assert type(twin) is type(oracle) is type(original)
                assert twin.__dict__.keys() == oracle.__dict__.keys()
                for field, value in oracle.__dict__.items():
                    if field not in ("op_id", "placement", "children"):
                        # everything else is shared by identity
                        assert twin.__dict__[field] is value, field
                assert twin._columns is original._columns is not None
                assert twin._fingerprint is original._fingerprint
                assert twin._cached_result is original._cached_result
                memoised += twin._cached_result is not None
                assert twin.placement is None
                assert twin.op_id > original.op_id
                # the children are the clones, not the template's
                assert twin.children is not original.children
                assert [id(child) for child in twin.children] == [
                    id(twins[id(child)]) for child in original.children]
        assert memoised > 0
        ids = [op.op_id for _, template in templates
               for op in template.clone().operators]
        assert len(set(ids)) == len(ids)

    def test_the_flat_clone_equals_the_recursive_clone(self, ssb_db,
                                                       tpch_db):
        """``clone`` walks the template's post order once; the recursive
        clone it replaced stays here as its reference."""

        def recursive_clone(plan):
            def clone_tree(op):
                op.required_columns()
                twin = object.__new__(type(op))
                twin.__dict__.update(op.__dict__)
                twin.op_id = next(operators.base._op_counter)
                twin.placement = None
                twin.children = [clone_tree(child) for child in op.children]
                return twin

            return operators.PhysicalPlan(clone_tree(plan.root),
                                          name=plan.name)

        def shape(op):
            return (type(op), op.label, op.plan_name,
                    tuple(shape(child) for child in op.children))

        def fields(plan):
            return [{key: value for key, value in op.__dict__.items()
                     if key not in ("op_id", "children")}
                    for op in plan.operators]

        templates = [query.template_plan()
                     for database, module in ((ssb_db, ssb), (tpch_db, tpch))
                     for query in module.workload(database)]
        for number, template in enumerate(templates):
            if number % 3 == 0:  # some templates carry memoised results
                execute_functional(
                    template, tpch_db if number >= 13 else ssb_db)
            template.assign_all("gpu")
            if number % 5 == 0:  # its operators now name another plan
                operators.PhysicalPlan(template.root, name="adopted")
            reference = recursive_clone(template)  # memoises _columns
            before = [(op.op_id, op.placement, list(op.children),
                       dict(op.__dict__)) for op in template.operators]
            first_id = next(operators.base._op_counter) + 1
            flat = template.clone()
            again = flat.clone()
            for clone in (flat, again):
                assert shape(clone.root) == shape(reference.root)
                assert clone.name == clone.root.plan_name == template.name
                assert clone.root is clone.operators[-1]
                assert clone.operators == tuple(clone.root.walk())
                assert clone.leaves == tuple(
                    op for op in clone.operators if not op.children)
                assert len(clone.leaves) == len(reference.leaves)
                assert fields(clone) == fields(reference)
                for twin, original in zip(clone.operators,
                                          template.operators):
                    assert twin.placement is None
                    assert twin._cached_result is original._cached_result
                    assert twin._columns is original._columns is not None
                    assert twin._fingerprint is original._fingerprint
            # fresh ids, handed out in post order
            assert [op.op_id for op in flat.operators] == list(
                range(first_id, first_id + len(template.operators)))
            assert [op.op_id for op in again.operators] == list(
                range(first_id + len(template.operators),
                      first_id + 2 * len(template.operators)))
            # the template is untouched
            assert before == [(op.op_id, op.placement, list(op.children),
                               dict(op.__dict__))
                              for op in template.operators]

    def test_the_memo_keeps_the_shape_beside_the_sizes(self, toy_db):
        env, hw, ctx = make_context(toy_db)
        template = make_plan(toy_db)
        entry = CriticalPath()._template(ctx, template)
        operators = template.operators
        index = {op.op_id: i for i, op in enumerate(operators)}
        assert entry.children == tuple(
            tuple(index[c.op_id] for c in op.children) for op in operators)
        assert entry.leaves == tuple(
            index[op.op_id] for op in template.leaves)
        assert entry.host_only == tuple(op.cpu_only for op in operators)
        assert len(entry.sizes) == len(operators)
        # one entry per (database, template): clones and a re-planned
        # statement get the very same object, in the one registered cache
        assert CriticalPath()._template(ctx, template.clone()) is entry
        assert CriticalPath()._template(ctx, make_plan(toy_db)) is entry
        assert len(caches.memo(toy_db, "placement_sizes")) == 1
        # and whatever drops the sizes drops the shape with them
        compress_database(toy_db)
        assert len(caches.memo(toy_db, "placement_sizes")) == 0
        again = CriticalPath()._template(ctx, template)
        assert again is not entry and again[1:] == entry[1:]
        clear_database_caches()
        assert len(caches._memos) == 0  # no database keeps a memo
        store = EpochStore(toy_db)
        CriticalPath()._template(ctx, template)
        pinned = store.pin()
        store.advance(fraction=0.5, tables=["sales"])
        assert len(caches.memo(toy_db, "placement_sizes")) == 1
        assert store.unpin(pinned) == 1  # drained: retired
        assert len(caches.memo(toy_db, "placement_sizes")) == 0

    def test_shape_is_fixed(self, toy_db):
        plan = make_plan(toy_db)
        assert plan.operators == tuple(plan.root.walk())
        assert plan.leaves == tuple(
            op for op in plan.root.walk() if not op.children)
        with pytest.raises(TypeError):
            plan.operators[0] = plan.root
        with pytest.raises(TypeError):
            plan.leaves[0] = plan.root
