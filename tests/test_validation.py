"""Tests for the built-in result validation of the runner."""

import numpy as np
import pytest

from repro.harness import ValidationError, run_workload, runner
from repro.harness.runner import canonical_row, validate_results
from repro.harness.service import ServiceConfig, run_service
from repro.storage import ColumnType
from repro.workloads import micro, sql_workload, ssb


QUERIES = {
    "agg": (
        "select region, sum(amount) as s, avg(price) as p "
        "from sales, store where skey = id group by region"
    ),
    "rows": "select amount, price from sales where amount < 12",
}


def test_validate_passes_on_correct_execution(toy_db):
    queries = sql_workload(toy_db, QUERIES)
    run = run_workload(toy_db, queries, "data_driven_chopping",
                       users=2, validate=True)
    assert run.seconds > 0
    # validate implies collection
    assert set(run.results) == set(QUERIES)


@pytest.mark.parametrize("strategy", ("gpu_only", "chopping"))
def test_validate_under_aborting_device(toy_db, strategy):
    from repro.hardware import SystemConfig
    from repro.hardware.calibration import MIB

    config = SystemConfig(gpu_memory_bytes=6 * MIB, gpu_cache_bytes=4 * MIB)
    queries = sql_workload(toy_db, QUERIES)
    run = run_workload(toy_db, queries, strategy, config=config,
                       users=3, repetitions=2, validate=True)
    assert run.seconds > 0


def test_validate_detects_corruption(toy_db):
    """Corrupting a memoised payload must be caught."""
    queries = sql_workload(toy_db, {"agg": QUERIES["agg"]})
    # poison the template's memoised root result
    template = queries[0].template_plan()
    from repro.engine.execution import execute_functional

    execute_functional(template, toy_db)
    payload, actual, nominal, width = template.root._cached_result
    corrupted_columns = dict(payload.columns)
    corrupted_columns["s"] = payload.columns["s"] + 1
    from repro.engine.intermediates import ResultFrame

    template.root._cached_result = (
        ResultFrame(corrupted_columns, payload.dictionaries),
        actual, nominal, width,
    )
    with pytest.raises(ValidationError):
        run_workload(toy_db, queries, "cpu_only", validate=True)


def test_validate_skips_hand_built_plans(ssb_db):
    queries = micro.parallel_selection_workload(ssb_db)
    run = run_workload(ssb_db, queries, "cpu_only", validate=True)
    assert run.seconds > 0  # no spec: skipped, no error


# A LIMIT the ORDER BY does not determine: many answers are right

class _Rows:
    """A result payload as ``validate_results`` reads it."""

    def __init__(self, rows):
        self.rows = rows

    def row_tuples(self):
        return list(self.rows)


def test_validate_accepts_the_rows_an_unordered_limit_kept():
    """The reference emits joins in ``FROM`` order, the engine in fact
    order: four different — and equally right — rows."""
    db = ssb.generate(1, data_scale=0.01, seed=7)
    queries = sql_workload(db, {"lim": (
        "select c_city, s_city from customer, lineorder, supplier "
        "where lo_custkey = c_custkey and lo_suppkey = s_suppkey "
        "and c_nation = 'CHINA' and s_nation = 'CHINA' limit 4")})
    run = run_workload(db, queries, "data_driven_chopping", validate=True)
    assert len(run.results["lim"].row_tuples()) == 4


def test_validate_limit_with_a_tie_at_the_cut(toy_db):
    from collections import Counter
    from dataclasses import replace

    from repro.engine import execute_reference

    sql = ("select amount, region from store, sales where skey = id "
           "order by amount limit 9")
    queries = sql_workload(toy_db, {"tie": sql})
    run = run_workload(toy_db, queries, "cpu_only", validate=True)
    got = run.results["tie"].row_tuples()
    spec = queries[0].spec
    reference = execute_reference(spec, toy_db)
    # the same nine amounts, the tie at the cut broken differently
    assert [row[0] for row in got] == [row[0] for row in reference]
    assert sorted(got) != sorted(reference)

    def check(rows):
        validate_results(toy_db, queries, {"tie": _Rows(rows)})

    check(got)
    check(reference)
    # rows six to nine tie on ``amount``; no row exists four times
    tied = got[5:]
    assert len({row[0] for row in tied}) == 1
    assert Counter(execute_reference(
        replace(spec, limit=None), toy_db))[tied[0]] < 4
    wrong = {
        "a row the query cannot return": got[:-1] + [(tied[0][0], "nowhere")],
        "a row returned more often than it exists": got[:5] + [tied[0]] * 4,
        "rows out of order": got[::-1],
        "a row missing": got[:-1],
        "a row from beyond the cut": got[:-1] + [(99, tied[0][1])],
    }
    for what, rows in wrong.items():
        with pytest.raises(ValidationError):
            check(rows)
            pytest.fail(what + " passed validation")


# The check stays total, a column at a time

def _row_by_row(payload):
    return list(map(canonical_row, payload.row_tuples()))


def test_every_completion_is_compared_under_faults_and_appends(ssb_db,
                                                               monkeypatch):
    """Each completed query of a validating service goes through exactly
    one comparison with the reference, and the rows it compares are the
    rows ``canonical_row`` makes of ``row_tuples()``."""
    compared, limited = [], []
    real_compare = runner.compare_rows
    real_limited = runner._compare_limited
    real_rows = runner.canonical_rows

    def compare_rows(name, got, want):
        if not limited:
            compared.append(name)
        return real_compare(name, got, want)

    def compare_limited(query, got, full):
        compared.append(query.name)
        limited.append(query.name)
        try:
            return real_limited(query, got, full)
        finally:
            limited.pop()

    def canonical_rows(payload):
        rows = real_rows(payload)
        assert repr(rows) == repr(_row_by_row(payload))
        return rows

    monkeypatch.setattr(runner, "compare_rows", compare_rows)
    monkeypatch.setattr(runner, "_compare_limited", compare_limited)
    monkeypatch.setattr(runner, "canonical_rows", canonical_rows)
    result = run_service(
        ssb_db, strategy="critical_path", query_names=["Q1.1", "Q2.1"],
        service=ServiceConfig(duration_seconds=1.0, rate=300.0,
                              tenants_per_class=1, max_inflight=3,
                              mutation_interval_seconds=0.4,
                              deadline_seconds=0.05, validate=True,
                              seed=17),
        faults="pcie=0.05,heap=0.05,kernel=0.05,seed=13")
    assert result.faults_injected > 0 and result.epochs >= 2
    assert result.identical, result.divergences[:3]
    assert result.completed > 0
    assert len(compared) == result.completed


def test_column_wise_rows_are_the_canonical_rows(ssb_db, tpch_db):
    """Every SSB and TPC-H template's engine result (TPC-H Q3 has a
    LIMIT), a FLOAT32 select, and a frame of every other dtype."""
    from repro.engine.execution import execute_functional
    from repro.engine.intermediates import ResultFrame
    from repro.workloads import tpch

    checked = 0
    for database, queries in ((ssb_db, ssb.workload(ssb_db)),
                              (tpch_db, tpch.workload(tpch_db))):
        for query in queries:
            payload = execute_functional(query.template_plan(),
                                         database).payload
            assert repr(runner.canonical_rows(payload)) == \
                repr(_row_by_row(payload)), query.name
            runner.check_result(database, query, payload, {})
            checked += query.spec.limit is not None
    assert checked >= 1
    frame = ResultFrame({
        "i8": np.array([-3, 7], dtype=np.int8),
        "u64": np.array([2**63, 1], dtype=np.uint64),
        "f32": np.array([1.5, -0.1], dtype=np.float32),
        "f64": np.array([0.1, 2.0]),
        "flag": np.array([True, False]),
        "word": np.array([1, 0], dtype=np.int32),
    }, {"word": ["ab", "cd"]})
    assert repr(runner.canonical_rows(frame)) == repr(_row_by_row(frame)) \
        == "[(-3, 9223372036854775808, 1.5, 0.1, 1, 'cd'), " \
           "(7, 1, -0.10000000149011612, 2.0, 0, 'ab')]"


def test_a_float32_column_validates_as_floats(toy_db):
    """``canonical_row`` reads a FLOAT32 value as a float, not as the
    integer it truncates to."""
    from repro.engine.execution import execute_functional

    database = toy_db
    table = database.table("sales")
    table.add_column("ratio", ColumnType.FLOAT32,
                     np.linspace(0.25, 9.75, table.actual_rows))
    query, = sql_workload(database, {
        "f32": "select ratio, amount from sales where amount < 12"})
    payload = execute_functional(query.template_plan(), database).payload
    assert payload.columns["ratio"].dtype == np.float32
    runner.check_result(database, query, payload, {})
