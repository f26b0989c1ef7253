"""Tests for the built-in result validation of the runner."""

import numpy as np
import pytest

from repro.harness import ValidationError, run_workload
from repro.harness.runner import validate_results
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


def test_validate_vectorized_model(toy_db):
    queries = sql_workload(toy_db, QUERIES)
    run_workload(toy_db, queries, "runtime",
                 processing_model="vectorized", validate=True)


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
