"""Edge-case tests across modules: empty inputs, degenerate plans,
failure paths, and interactions not covered elsewhere."""

import numpy as np
import pytest

from tests.conftest import make_context
from repro.engine import Planner, execute_reference
from repro.engine.execution import execute_functional
from repro.engine.expressions import (
    Aggregate,
    ColumnRef,
    Comparison,
    Literal,
)
from repro.engine.operators import (
    Distinct,
    FrameFilter,
    GroupByAggregate,
    Materialize,
    ScanSelect,
)
from repro.sql import bind
from repro.storage import ColumnType, Database


@pytest.fixture()
def empty_db():
    db = Database("empty")
    table = db.create_table("t", nominal_rows=0)
    table.add_column("a", ColumnType.INT32, np.empty(0, dtype=np.int32))
    table.add_column("b", ColumnType.INT32, np.empty(0, dtype=np.int32))
    return db


class TestEmptyInputs:
    def test_scan_on_empty_table(self, empty_db):
        spec = bind("select a from t where a > 0", empty_db)
        result = execute_functional(Planner(empty_db).plan(spec), empty_db)
        assert result.actual_rows == 0
        assert execute_reference(spec, empty_db) == []

    def test_scalar_aggregate_on_empty_table(self, empty_db):
        spec = bind("select sum(a) as s, count(*) as n from t", empty_db)
        result = execute_functional(Planner(empty_db).plan(spec), empty_db)
        rows = result.payload.row_tuples()
        assert len(rows) == 1
        assert int(rows[0][0]) == 0 and int(rows[0][1]) == 0

    def test_group_by_on_empty_table(self, empty_db):
        spec = bind("select a, count(*) as n from t group by a", empty_db)
        result = execute_functional(Planner(empty_db).plan(spec), empty_db)
        assert result.actual_rows == 0

    def test_distinct_on_empty_result(self, empty_db):
        spec = bind("select distinct a from t", empty_db)
        result = execute_functional(Planner(empty_db).plan(spec), empty_db)
        assert result.actual_rows == 0

    def test_simulated_execution_of_empty_query(self, empty_db):
        from repro.harness import run_workload
        from repro.workloads import sql_workload

        queries = sql_workload(empty_db, {"q": "select a from t"})
        run = run_workload(empty_db, queries, "data_driven_chopping",
                           collect_results=True)
        assert len(run.results["q"]) == 0


class TestDegeneratePredicates:
    def test_predicate_selecting_everything(self, toy_db):
        spec = bind("select amount from sales where amount >= 0", toy_db)
        result = execute_functional(Planner(toy_db).plan(spec), toy_db)
        assert result.actual_rows == toy_db.table("sales").actual_rows

    def test_contradictory_between(self, toy_db):
        spec = bind(
            "select amount from sales where amount between 50 and 10",
            toy_db,
        )
        result = execute_functional(Planner(toy_db).plan(spec), toy_db)
        assert result.actual_rows == 0

    def test_join_with_empty_build_side(self, toy_db):
        spec = bind(
            "select sum(amount) as s from sales, store "
            "where skey = id and size > 10000",
            toy_db,
        )
        result = execute_functional(Planner(toy_db).plan(spec), toy_db)
        assert int(result.payload.column("s")[0]) == 0

    def test_in_list_with_single_value(self, toy_db):
        spec = bind("select amount from sales where skey in (3)", toy_db)
        result = execute_functional(Planner(toy_db).plan(spec), toy_db)
        tids_expected = int(
            (toy_db.column("sales.skey").values == 3).sum()
        )
        assert result.actual_rows == tids_expected


class TestFrameOperatorEdges:
    def test_distinct_on_all_equal_rows(self, toy_db):
        scan = ScanSelect("sales")
        mat = Materialize(scan, [("one", Literal(1) if False else ColumnRef("sales", "skey"))])
        scanned = scan.run(toy_db, [])
        frame = mat.run(toy_db, [scanned])
        # overwrite to constant values
        frame.payload.columns["one"] = np.zeros(
            len(frame.payload), dtype=np.int32
        )
        distinct = Distinct(mat)
        out = distinct.run(toy_db, [frame])
        assert out.actual_rows == 1

    def test_frame_filter_type_errors(self, toy_db):
        scan = ScanSelect("sales")
        predicate = Comparison(">", ColumnRef("", "n"), Literal(1))
        having = FrameFilter(scan, predicate)
        scanned = scan.run(toy_db, [])
        with pytest.raises(TypeError):
            having.run(toy_db, [scanned])  # TidSet, not ResultFrame

    def test_distinct_type_errors(self, toy_db):
        scan = ScanSelect("sales")
        scanned = scan.run(toy_db, [])
        with pytest.raises(TypeError):
            Distinct(scan).run(toy_db, [scanned])


class TestStringGrouping:
    def test_group_by_string_column(self, toy_db):
        spec = bind(
            "select region, count(*) as n from sales, store "
            "where skey = id group by region order by region",
            toy_db,
        )
        result = execute_functional(Planner(toy_db).plan(spec), toy_db)
        decoded = result.payload.decoded("region")
        assert decoded == sorted(decoded)
        assert int(result.payload.column("n").sum()) == (
            toy_db.table("sales").actual_rows
        )

    def test_multi_string_grouping(self, ssb_db):
        spec = bind(
            "select c_region, s_region, count(*) as n "
            "from customer, lineorder, supplier "
            "where lo_custkey = c_custkey and lo_suppkey = s_suppkey "
            "group by c_region, s_region",
            ssb_db,
        )
        result = execute_functional(Planner(ssb_db).plan(spec), ssb_db)
        rows = result.payload.row_tuples()
        reference = execute_reference(spec, ssb_db)
        assert sorted(
            (a, b, int(n)) for a, b, n in rows
        ) == sorted((a, b, int(n)) for a, b, n in reference)


class TestSimEdges:
    def test_processor_stale_timer_after_arrival(self):
        """A new arrival must reschedule the completion timer."""
        from repro.hardware.processor import Processor, ProcessorKind
        from repro.sim import Environment

        env = Environment()
        cpu = Processor(env, "cpu", ProcessorKind.CPU)
        ends = {}

        def first():
            yield from cpu.execute(2.0)
            ends["first"] = env.now

        def second():
            yield env.timeout(1.9)  # arrives just before completion
            yield from cpu.execute(0.1)
            ends["second"] = env.now

        env.process(first())
        env.process(second())
        env.run()
        # at t=1.9 both jobs have 0.1s of work left; sharing stretches
        # that to 0.2s wall clock and both finish together at 2.1 —
        # the timer armed for first's solo completion (t=2.0) must have
        # been invalidated by second's arrival
        assert ends["first"] == pytest.approx(2.1)
        assert ends["second"] == pytest.approx(2.1)

    def test_bus_latency_only_charged_per_transfer(self):
        from repro.hardware import PCIeBus
        from repro.metrics import MetricsCollector
        from repro.sim import Environment

        env = Environment()
        metrics = MetricsCollector()
        bus = PCIeBus(env, 1000.0, latency_seconds=0.5, metrics=metrics)

        def proc():
            yield from bus.transfer(100, "h2d")
            yield from bus.transfer(100, "h2d")

        env.process(proc())
        env.run()
        assert env.now == pytest.approx(2 * (0.5 + 0.1))


class TestOrderByStability:
    def test_order_by_with_ties_is_stable_per_sort_keys(self, toy_db):
        spec = bind(
            "select skey, count(*) as n from sales group by skey "
            "order by n desc, skey asc",
            toy_db,
        )
        result = execute_functional(Planner(toy_db).plan(spec), toy_db)
        rows = result.payload.row_tuples()
        # verify full ordering: n desc then skey asc
        keys = [(-int(n), int(k)) for k, n in rows]
        assert keys == sorted(keys)


class TestExplainEndToEnd:
    def test_explain_of_every_ssb_plan(self, ssb_db):
        from repro.workloads import ssb as ssb_module

        planner = Planner(ssb_db)
        for name, sql in ssb_module.QUERIES.items():
            plan = planner.plan(bind(sql, ssb_db, name=name))
            text = plan.explain()
            assert text.count("\n") + 1 == len(plan.operators), name
