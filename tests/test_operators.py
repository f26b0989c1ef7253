"""Unit tests for the physical operators (functional semantics and
nominal-size accounting) against brute-force numpy oracles."""

import numpy as np
import pytest

from repro.engine.expressions import (
    Aggregate,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Literal,
)
from repro.engine.intermediates import OperatorResult, ResultFrame, TidSet
from repro.engine.operators import (
    Distinct,
    FrameFilter,
    GroupByAggregate,
    HashJoin,
    Limit,
    Materialize,
    PhysicalOperator,
    PhysicalPlan,
    ROLES,
    RefineSelect,
    ScanSelect,
    Sort,
    TidIntersect,
)
from repro.engine.operators.base import TID_BYTES
from repro.hardware.calibration import COGADB_PROFILE, OCELOT_PROFILE
from repro.hardware.processor import ProcessorKind
from tests import rules
from tests.rules import operator_classes


AMOUNT = ColumnRef("sales", "amount")
PRICE = ColumnRef("sales", "price")
SKEY = ColumnRef("sales", "skey")
SID = ColumnRef("store", "id")
REGION = ColumnRef("store", "region")
SIZE = ColumnRef("store", "size")


# -- an operator is declared once, on its class ----------------------------

def _one_of_each():
    """{class: an instance} — a new operator class needs an entry."""
    scan = ScanSelect("sales")
    predicate = Comparison("<", AMOUNT, Literal(30))
    frame = GroupByAggregate(scan, [], [Aggregate("sum", AMOUNT, "s")])
    instances = (
        scan, RefineSelect(scan, "sales", predicate),
        TidIntersect(scan, scan, "sales"),
        HashJoin(scan, ScanSelect("store"), SKEY, SID), frame,
        Materialize(scan, [("amount", AMOUNT)]), Sort(frame, [("s", True)]),
        Limit(frame, 1), Distinct(frame), FrameFilter(frame, predicate),
    )
    return {type(op): op for op in instances}


#: children per plan shape
ARITY = {"scan": 0, "refine": 1, "intersect": 2, "join": 2,
         "aggregate": 1, "project": 1, "tail": 1}

#: the classes that inherit ``PhysicalOperator.estimate`` on purpose:
#: frame in, frame out, volume preserved
VOLUME_PRESERVING = {Sort, Limit, Distinct, FrameFilter}


class TestOperatorDeclarations:
    """What the engine, the cost models and compile-time placement ask
    of an operator is answered on its class, and nowhere else."""

    def test_every_class_is_sampled(self):
        assert len(operator_classes()) >= 10
        assert set(operator_classes()) == set(_one_of_each())

    @pytest.mark.parametrize("cls", operator_classes(),
                             ids=lambda cls: cls.__name__)
    def test_declaration_is_complete(self, cls):
        assert set(ARITY) == set(ROLES)
        assert cls.role in ROLES
        assert len(_one_of_each()[cls].children) == ARITY[cls.role]
        # a missing curve would be a KeyError in the middle of a run
        for profile in (COGADB_PROFILE, OCELOT_PROFILE):
            assert profile.compute_seconds(
                cls.kind, ProcessorKind.CPU, 1.0) > 0
            if not cls.cpu_only:
                assert profile.compute_seconds(
                    cls.kind, ProcessorKind.GPU, 1.0) > 0
        inherits = cls.estimate is PhysicalOperator.estimate
        assert inherits == (cls in VOLUME_PRESERVING)
        assert cls.run is not PhysicalOperator.run

    def test_no_type_tests_outside_the_class(self, source_index):
        assert rules.type_tests(source_index) == []


# -- an operator computes once, in its chunk kernel --------------------------

#: (class, kernel): the one place each chain operator computes
CHUNK_KERNELS = [(ScanSelect, "select"), (RefineSelect, "select"),
                 (HashJoin, "match"), (GroupByAggregate, "partial"),
                 (Materialize, "partial")]


class TestOneChunkKernel:
    def test_the_morsel_schedule_computes_nothing(self, source_index):
        assert rules.morsel_computes(source_index) == []

    def test_the_morsel_schedule_has_one_chain_loop(self, source_index):
        assert rules.chain_loops(source_index) == []

    @pytest.fixture()
    def spied(self, monkeypatch):
        """Calls per (class name, kernel), counted on the classes, and
        the calls the chain kernel answered, as ``("kernels",
        "Chain.run")``."""
        from repro.engine import kernels

        calls = {}
        for cls, kernel in CHUNK_KERNELS:
            def counting(self, *args, _inner=getattr(cls, kernel),
                         _key=(cls.__name__, kernel), **kwargs):
                calls[_key] = calls.get(_key, 0) + 1
                return _inner(self, *args, **kwargs)
            monkeypatch.setattr(cls, kernel, counting)

        def chained(self, *args, _inner=kernels.Chain.run, **kwargs):
            found = _inner(self, *args, **kwargs)
            if found is not None:
                key = ("kernels", "Chain.run")
                calls[key] = calls.get(key, 0) + 1
            return found
        monkeypatch.setattr(kernels.Chain, "run", chained)
        return calls

    @staticmethod
    def _plan(breaker):
        """scan → refine → join → breaker over ``toy_db``."""
        chain = HashJoin(
            RefineSelect(
                ScanSelect("sales", Comparison("<", AMOUNT, Literal(90))),
                "sales", Comparison(">", PRICE, Literal(3))),
            ScanSelect("store"), SKEY, SID)
        if breaker is GroupByAggregate:
            root = GroupByAggregate(chain, [REGION],
                                    [Aggregate("sum", AMOUNT, "total")])
        else:
            root = Materialize(chain, [("amount", AMOUNT), ("size", SIZE)])
        return PhysicalPlan(root, name="spy")

    @pytest.mark.parametrize("breaker", [GroupByAggregate, Materialize])
    def test_both_schedules_go_through_the_class_kernels(self, toy_db,
                                                         spied, breaker):
        from contextlib import nullcontext

        from repro.engine import caches, morsel
        from repro.engine.execution import execute_operators

        from tests.conftest import morsel_rows, numpy_selections

        from repro.engine import kernels

        # the chain of a range: one chain-kernel call, the selections
        # folded into it as filter stages (or, kept in numpy, one
        # ``select`` each before it); where the kernel did not build,
        # one ``select`` each and one ``match`` per join for every morsel
        compiled = kernels._chain_kernel() is not None
        join = ("kernels", "Chain.run") if compiled else ("HashJoin", "match")
        selects = [("ScanSelect", "select"), ("RefineSelect", "select")]
        partial = (breaker.__name__, "partial")
        caches.memo(toy_db, "plan").clear()
        reference = execute_operators(self._plan(breaker), toy_db)
        # operator at a time: every kernel once, over the whole column
        # (the build-side scan has no predicate, so nothing to select);
        # ``match`` runs its join through a binding of one
        assert spied == dict.fromkeys(selects + [join, ("HashJoin", "match"),
                                                 partial], 1)

        rows = toy_db.table("sales").actual_rows
        for folding in (True, False):
            per_range = {join: 1 if compiled else 3}
            if not (folding and compiled):
                per_range.update(dict.fromkeys(selects, 1))
            with morsel_rows(-(-rows // 3)), (  # three morsels
                    nullcontext() if folding else numpy_selections()):
                # recording: the chain once over the range, the breaker
                # at the barrier; the probes and morsels booked one by one
                spied.clear()
                kernels.reset_stats()
                before = morsel.snapshot_stats()
                caches.memo(toy_db, "plan").clear()
                pipe = morsel.build(self._plan(breaker), toy_db)
                assert len(pipe.ranges()) == 3
                assert pipe.folded == 2 * (folding and compiled)
                pipe.run_recorded()
                assert spied == {**per_range, partial: 1}
                assert morsel.stats_since(before)["morsels"] == 3
                assert kernels.stats["compiled_probes"] == 3 * compiled
                # pooled: the chain once over the worker chunk, the
                # breaker once per batch of a morsel's worth of its output
                # rows — the first two morsels' (~140 rows each), then the
                # last
                spied.clear()
                before = morsel.snapshot_stats()
                merged = pipe.merge([pipe.run_chunk(0, rows)])
                assert spied == {**per_range, partial: 2}
                assert morsel.stats_since(before)["morsels"] == 3
                assert kernels.stats["compiled_probes"] == 6 * compiled
            assert (merged.payload.row_tuples()
                    == reference.payload.row_tuples())
        caches.memo(toy_db, "plan").clear()


class TestScanSelect:
    def test_matches_numpy_mask(self, toy_db):
        scan = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
        result = scan.run(toy_db, [])
        expected = np.flatnonzero(
            toy_db.column("sales.amount").values < 30
        )
        assert np.array_equal(result.payload.positions("sales"), expected)

    def test_nominal_rows_scale_with_selectivity(self, toy_db):
        scan = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
        result = scan.run(toy_db, [])
        actual_sel = result.actual_rows / toy_db.table("sales").actual_rows
        expected_nominal = round(actual_sel * 1_000_000)
        assert result.nominal_rows == expected_nominal
        assert result.nominal_bytes == expected_nominal * TID_BYTES

    def test_bare_scan_is_metadata_only(self, toy_db):
        scan = ScanSelect("sales")
        result = scan.run(toy_db, [])
        assert result.actual_rows == toy_db.table("sales").actual_rows
        assert result.nominal_bytes == 0  # no materialised tid list
        assert scan.required_columns() == set()

    def test_input_bytes_cover_predicate_columns(self, toy_db):
        predicate = Between(AMOUNT, Literal(1), Literal(5))
        scan = ScanSelect("sales", predicate)
        scan.run(toy_db, [])
        expected = toy_db.column("sales.amount").nominal_bytes
        assert scan.input_nominal_bytes(toy_db, []) == expected

    def test_selecting_nothing(self, toy_db):
        scan = ScanSelect("sales", Comparison(">", AMOUNT, Literal(10**9)))
        result = scan.run(toy_db, [])
        assert result.actual_rows == 0
        assert result.nominal_rows == 0


class TestRefineSelect:
    def test_chain_equals_fused_predicate(self, toy_db):
        scan = ScanSelect("sales", Comparison(">=", AMOUNT, Literal(20)))
        refine = RefineSelect(
            scan, "sales", Comparison("<=", AMOUNT, Literal(60))
        )
        base = scan.run(toy_db, [])
        refined = refine.run(toy_db, [base])
        values = toy_db.column("sales.amount").values
        expected = np.flatnonzero((values >= 20) & (values <= 60))
        assert np.array_equal(refined.payload.positions("sales"), expected)

    def test_refine_on_other_column(self, toy_db):
        scan = ScanSelect("sales", Comparison("<", AMOUNT, Literal(50)))
        refine = RefineSelect(scan, "sales",
                              Comparison("<", PRICE, Literal(10)))
        base = scan.run(toy_db, [])
        refined = refine.run(toy_db, [base])
        amount = toy_db.column("sales.amount").values
        price = toy_db.column("sales.price").values
        expected = np.flatnonzero((amount < 50) & (price < 10))
        assert np.array_equal(refined.payload.positions("sales"), expected)

    def test_input_bytes_proportional_to_intermediate(self, toy_db):
        scan = ScanSelect("sales", Comparison("<", AMOUNT, Literal(50)))
        refine = RefineSelect(scan, "sales",
                              Comparison("<", PRICE, Literal(10)))
        base = scan.run(toy_db, [])
        width = TID_BYTES + toy_db.column("sales.price").ctype.itemsize
        assert refine.input_nominal_bytes(toy_db, [base]) == (
            base.nominal_rows * width
        )


class TestTidIntersect:
    def test_intersection(self, toy_db):
        left = ScanSelect("sales", Comparison("<", AMOUNT, Literal(50)))
        right = ScanSelect("sales", Comparison("<", PRICE, Literal(10)))
        op = TidIntersect(left, right, "sales")
        result = op.run(toy_db, [left.run(toy_db, []), right.run(toy_db, [])])
        amount = toy_db.column("sales.amount").values
        price = toy_db.column("sales.price").values
        expected = np.flatnonzero((amount < 50) & (price < 10))
        assert np.array_equal(result.payload.positions("sales"), expected)


class TestHashJoin:
    def build(self, toy_db, fact_pred=None, dim_pred=None):
        probe = ScanSelect("sales", fact_pred)
        build = ScanSelect("store", dim_pred)
        join = HashJoin(probe, build, SKEY, SID)
        probe_result = probe.run(toy_db, [])
        build_result = build.run(toy_db, [])
        return join, join.run(toy_db, [probe_result, build_result])

    def test_fk_join_covers_all_fact_rows(self, toy_db):
        _, result = self.build(toy_db)
        # every sales row has a matching store (dense FK domain)
        assert result.actual_rows == toy_db.table("sales").actual_rows

    def test_join_alignment(self, toy_db):
        _, result = self.build(toy_db)
        sales_pos = result.payload.positions("sales")
        store_pos = result.payload.positions("store")
        skey = toy_db.column("sales.skey").values[sales_pos]
        sid = toy_db.column("store.id").values[store_pos]
        assert np.array_equal(skey, sid)

    def test_filtered_build_side(self, toy_db):
        _, result = self.build(
            toy_db, dim_pred=Comparison("<", SIZE, Literal(50))
        )
        store_pos = result.payload.positions("store")
        assert (toy_db.column("store.size").values[store_pos] < 50).all()
        # oracle: count fact rows whose store has size < 50
        small_ids = set(
            toy_db.column("store.id").values[
                toy_db.column("store.size").values < 50
            ]
        )
        expected = sum(
            1 for k in toy_db.column("sales.skey").values if int(k) in small_ids
        )
        assert result.actual_rows == expected

    def test_duplicate_build_keys_expand(self):
        from repro.storage import ColumnType, Database

        db = Database()
        left = db.create_table("l")
        left.add_column("k", ColumnType.INT32,
                        np.array([1, 2, 3], dtype=np.int32))
        right = db.create_table("r")
        right.add_column("k", ColumnType.INT32,
                         np.array([2, 2, 9], dtype=np.int32))
        join = HashJoin(
            ScanSelect("l"), ScanSelect("r"),
            ColumnRef("l", "k"), ColumnRef("r", "k"),
        )
        lres = join.children[0].run(db, [])
        rres = join.children[1].run(db, [])
        result = join.run(db, [lres, rres])
        # key 2 matches twice, keys 1/3 not at all
        assert result.actual_rows == 2
        assert set(result.payload.table_names) == {"l", "r"}

    def test_same_table_on_both_sides_rejected(self, toy_db):
        probe = ScanSelect("sales")
        build = ScanSelect("sales")
        join = HashJoin(probe, build, SKEY, SKEY)
        left = probe.run(toy_db, [])
        right = build.run(toy_db, [])
        with pytest.raises(ValueError):
            join.run(toy_db, [left, right])

    def test_required_columns_are_keys(self, toy_db):
        join, _ = self.build(toy_db)
        assert join.required_columns() == {"sales.skey", "store.id"}


class TestGroupByAggregate:
    def joined(self, toy_db):
        probe = ScanSelect("sales")
        build = ScanSelect("store")
        join = HashJoin(probe, build, SKEY, SID)
        return join.run(
            toy_db, [probe.run(toy_db, []), build.run(toy_db, [])]
        )

    def test_sum_per_group_matches_oracle(self, toy_db):
        joined = self.joined(toy_db)
        op = GroupByAggregate(
            ScanSelect("sales"),  # structural child, unused in run
            [REGION],
            [Aggregate("sum", AMOUNT, "total")],
        )
        result = op.run(toy_db, [joined])
        frame = result.payload
        # oracle with python dicts
        skey = toy_db.column("sales.skey").values
        amount = toy_db.column("sales.amount").values
        region_col = toy_db.column("store.region")
        expected = {}
        for k, a in zip(skey, amount):
            region = region_col.decode(region_col.values[k - 1])
            expected[region] = expected.get(region, 0) + int(a)
        got = dict(zip(frame.decoded("region"), frame.column("total")))
        assert {k: int(v) for k, v in got.items()} == expected

    def test_count_avg_min_max(self, toy_db):
        joined = self.joined(toy_db)
        op = GroupByAggregate(
            ScanSelect("sales"),
            [REGION],
            [
                Aggregate("count", Literal(1), "n"),
                Aggregate("avg", AMOUNT, "mean"),
                Aggregate("min", AMOUNT, "lo"),
                Aggregate("max", AMOUNT, "hi"),
            ],
        )
        result = op.run(toy_db, [joined])
        frame = result.payload
        assert int(frame.column("n").sum()) == toy_db.table("sales").actual_rows
        assert (frame.column("lo") <= frame.column("hi")).all()
        for n, mean, lo, hi in zip(
            frame.column("n"), frame.column("mean"),
            frame.column("lo"), frame.column("hi"),
        ):
            assert lo <= mean <= hi
            assert n > 0

    def test_scalar_aggregate(self, toy_db):
        scan = ScanSelect("sales", Comparison("<", AMOUNT, Literal(30)))
        scanned = scan.run(toy_db, [])
        op = GroupByAggregate(
            scan, [], [Aggregate("sum", Arithmetic("*", AMOUNT, PRICE), "rev")]
        )
        result = op.run(toy_db, [scanned])
        amount = toy_db.column("sales.amount").values.astype(np.int64)
        price = toy_db.column("sales.price").values.astype(np.int64)
        mask = amount < 30
        assert result.payload.column("rev")[0] == (amount * price)[mask].sum()
        assert result.actual_rows == 1

    def test_scalar_aggregate_over_empty_input(self, toy_db):
        scan = ScanSelect("sales", Comparison(">", AMOUNT, Literal(10**9)))
        scanned = scan.run(toy_db, [])
        op = GroupByAggregate(
            scan, [], [Aggregate("sum", AMOUNT, "s"),
                       Aggregate("count", Literal(1), "n")]
        )
        result = op.run(toy_db, [scanned])
        assert result.payload.column("s")[0] == 0
        assert result.payload.column("n")[0] == 0

    def test_groups_sorted_by_key(self, toy_db):
        joined = self.joined(toy_db)
        op = GroupByAggregate(
            ScanSelect("sales"), [REGION],
            [Aggregate("sum", AMOUNT, "total")],
        )
        frame = op.run(toy_db, [joined]).payload
        decoded = frame.decoded("region")
        assert decoded == sorted(decoded)

    def test_needs_groups_or_aggregates(self, toy_db):
        with pytest.raises(ValueError):
            GroupByAggregate(ScanSelect("sales"), [], [])

    @pytest.mark.parametrize("n_rows", [12, 11, 0],
                             ids=["domain_is_rows", "domain_is_rows_plus_1",
                                  "zero_rows"])
    def test_counted_groups_equal_sorted_groups(self, n_rows, monkeypatch):
        """Dense ids over a 12-slot domain: counted into a table where
        the domain fits the rows, sorted by ``np.unique`` otherwise.
        Both ways give the same ``present``, ``inverse``, counts and
        float sums (dtype and bytes), and ``partial`` counts exactly
        where ``domain <= n_rows``."""
        from repro.engine.frame import Frame
        from repro.engine.operators import aggregate
        from repro.storage import ColumnType, Database

        rng = np.random.default_rng(n_rows)
        db = Database("groups")
        table = db.create_table("t", nominal_rows=300)
        table.add_column("g", ColumnType.INT32,
                         np.r_[0, 11, rng.integers(0, 12, 28)])
        table.add_column("v", ColumnType.FLOAT64, rng.random(30))
        op = GroupByAggregate(ScanSelect("t"), [ColumnRef("t", "g")],
                              [Aggregate("sum", ColumnRef("t", "v"), "v")])
        op.bind(db, ["t"])
        assert op.dense.domain == 12
        tids = rng.choice(30, n_rows, replace=False)
        ids = db.column("t.g").values[tids].astype(np.int64)
        weights = db.column("t.v").values[tids]
        found = {"counted": aggregate._count_groups(ids, 12),
                 "sorted": np.unique(ids, return_inverse=True)}
        for way, (present, inverse) in found.items():
            found[way] = (present, inverse,
                          np.bincount(inverse, minlength=len(present)),
                          np.bincount(inverse, weights=weights,
                                      minlength=len(present)))
        for got, want in zip(found["counted"], found["sorted"]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

        calls = []

        def counting(*args, _inner=aggregate._count_groups):
            calls.append(args[1])
            return _inner(*args)
        monkeypatch.setattr(aggregate, "_count_groups", counting)
        partial = op.partial(Frame(db, {"t": tids}), n_rows)
        assert calls == [12] * (12 <= n_rows)
        present, _, counts, sums = found["sorted"]
        assert partial.present.tobytes() == present.tobytes()
        assert partial.counts.tobytes() == counts.tobytes()
        assert partial.values["v"].tobytes() == sums.tobytes()


class TestMaterializeSortLimit:
    def frame_result(self, toy_db):
        scan = ScanSelect("sales", Comparison("<", AMOUNT, Literal(40)))
        scanned = scan.run(toy_db, [])
        mat = Materialize(scan, [("amount", AMOUNT), ("price", PRICE)])
        return mat, mat.run(toy_db, [scanned]), scanned

    def test_materialize_gathers_values(self, toy_db):
        _, result, scanned = self.frame_result(toy_db)
        positions = scanned.payload.positions("sales")
        expected = toy_db.column("sales.amount").values[positions]
        assert np.array_equal(result.payload.column("amount"), expected)

    def test_materialize_is_cpu_only(self, toy_db):
        mat, _, _ = self.frame_result(toy_db)
        assert mat.cpu_only

    def test_sort_single_key_desc(self, toy_db):
        mat, result, _ = self.frame_result(toy_db)
        sort = Sort(mat, [("amount", False)])
        sorted_result = sort.run(toy_db, [result])
        values = sorted_result.payload.column("amount")
        assert np.array_equal(values, np.sort(values)[::-1])

    def test_sort_multi_key(self, toy_db):
        mat, result, _ = self.frame_result(toy_db)
        sort = Sort(mat, [("price", True), ("amount", False)])
        frame = sort.run(toy_db, [result]).payload
        rows = list(zip(frame.column("price"), -frame.column("amount")))
        assert rows == sorted(rows)

    def test_sort_preserves_row_alignment(self, toy_db):
        mat, result, _ = self.frame_result(toy_db)
        before = set(
            zip(result.payload.column("amount"), result.payload.column("price"))
        )
        frame = Sort(mat, [("amount", True)]).run(toy_db, [result]).payload
        after = set(zip(frame.column("amount"), frame.column("price")))
        assert before == after

    def test_limit(self, toy_db):
        mat, result, _ = self.frame_result(toy_db)
        limited = Limit(mat, 5).run(toy_db, [result])
        assert limited.actual_rows == 5
        assert limited.nominal_rows == 5

    def test_limit_larger_than_input(self, toy_db):
        mat, result, _ = self.frame_result(toy_db)
        limited = Limit(mat, 10**9).run(toy_db, [result])
        assert limited.actual_rows == result.actual_rows

    def test_limit_validation(self, toy_db):
        mat, _, _ = self.frame_result(toy_db)
        with pytest.raises(ValueError):
            Limit(mat, -1)


class TestPlanInfrastructure:
    def make_plan(self, toy_db):
        probe = ScanSelect("sales", Comparison("<", AMOUNT, Literal(40)))
        build = ScanSelect("store")
        join = HashJoin(probe, build, SKEY, SID)
        agg = GroupByAggregate(join, [REGION],
                               [Aggregate("sum", AMOUNT, "total")])
        return PhysicalPlan(agg, name="test")

    def test_post_order_traversal(self, toy_db):
        plan = self.make_plan(toy_db)
        kinds = [op.kind for op in plan.operators]
        assert kinds == ["selection", "selection", "join", "groupby"]
        assert len(plan.leaves) == 2

    def test_required_columns_union(self, toy_db):
        plan = self.make_plan(toy_db)
        assert plan.required_columns() == {
            "sales.amount", "sales.skey", "store.id", "store.region",
        }

    def test_assign_all(self, toy_db):
        plan = self.make_plan(toy_db)
        plan.assign_all("gpu")
        assert all(op.placement == "gpu" for op in plan.operators)

    def test_clone_resets_placement_and_ids(self, toy_db):
        plan = self.make_plan(toy_db)
        plan.assign_all("gpu")
        twin = plan.clone()
        assert all(op.placement is None for op in twin.operators)
        original_ids = {op.op_id for op in plan.operators}
        twin_ids = {op.op_id for op in twin.operators}
        assert not original_ids & twin_ids

    def test_clone_shares_memoised_results(self, toy_db):
        from repro.engine.execution import execute_functional

        plan = self.make_plan(toy_db)
        execute_functional(plan, toy_db)
        twin = plan.clone()
        for original, copy in zip(plan.operators, twin.operators):
            assert copy._cached_result is original._cached_result
            assert copy._cached_result is not None

    def test_produce_returns_fresh_result_objects(self, toy_db):
        scan = ScanSelect("sales", Comparison("<", AMOUNT, Literal(40)))
        first = scan.produce(toy_db, [])
        second = scan.produce(toy_db, [])
        assert first is not second
        assert first.payload is second.payload  # shared numpy work
        first.location = "gpu"
        assert second.location == "cpu"


class TestIntermediates:
    def test_tidset_alignment_validation(self):
        with pytest.raises(ValueError):
            TidSet({"a": np.arange(3), "b": np.arange(4)})
        with pytest.raises(ValueError):
            TidSet({})

    def test_result_frame_validation(self):
        with pytest.raises(ValueError):
            ResultFrame({})
        with pytest.raises(ValueError):
            ResultFrame({"a": np.arange(3), "b": np.arange(2)})

    def test_frame_decoding(self):
        frame = ResultFrame(
            {"s": np.array([1, 0]), "v": np.array([5, 6])},
            dictionaries={"s": ["x", "y"]},
        )
        assert frame.decoded("s") == ["y", "x"]
        assert frame.row_tuples() == [("y", 5), ("x", 6)]

    def test_operator_result_nominal_bytes(self):
        result = OperatorResult(None, actual_rows=10, nominal_rows=1000,
                                row_width_bytes=8)
        assert result.nominal_bytes == 8000

    def test_release_device_memory_idempotent(self):
        from repro.hardware import DeviceHeap

        heap = DeviceHeap(100)
        result = OperatorResult(None, 1, 1, 4)
        result.allocation = heap.allocate(50)
        result.release_device_memory()
        result.release_device_memory()
        assert heap.used == 0
