"""Property-based end-to-end testing: random SQL queries must agree
between the physical engine and the naive reference evaluator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Planner, caches, execute_reference
from repro.engine.execution import execute_functional, execute_operators
from repro.sql import bind
from repro.storage import ColumnType, Database


def build_database(seed):
    rng = np.random.default_rng(seed)
    db = Database("rand")
    n = 300
    fact = db.create_table("f", nominal_rows=100_000)
    fact.add_column("fk", ColumnType.INT32, rng.integers(1, 11, n))
    fact.add_column("x", ColumnType.INT32, rng.integers(-20, 21, n))
    fact.add_column("y", ColumnType.INT32, rng.integers(0, 100, n))
    dim = db.create_table("d", nominal_rows=10)
    dim.add_column("id", ColumnType.INT32, np.arange(1, 11))
    dim.add_column("w", ColumnType.INT32, rng.integers(0, 5, 10))
    return db


DATABASES = {seed: build_database(seed) for seed in range(3)}

comparison_ops = st.sampled_from(["<", "<=", ">", ">=", "=", "<>"])
fact_columns = st.sampled_from(["x", "y"])
literals = st.integers(-25, 105)


@st.composite
def predicates(draw, max_conjuncts=3):
    """Random conjunctions of comparisons / BETWEEN / IN on f."""
    n = draw(st.integers(1, max_conjuncts))
    parts = []
    for _ in range(n):
        column = draw(fact_columns)
        shape = draw(st.integers(0, 2))
        if shape == 0:
            parts.append("{} {} {}".format(
                column, draw(comparison_ops), draw(literals)))
        elif shape == 1:
            low = draw(literals)
            high = draw(literals)
            parts.append("{} between {} and {}".format(column, low, high))
        else:
            values = draw(st.lists(literals, min_size=1, max_size=4))
            parts.append("{} in ({})".format(
                column, ", ".join(map(str, values))))
    return " and ".join(parts)


def rows_match(engine_rows, reference_rows):
    if len(engine_rows) != len(reference_rows):
        return False
    for got, want in zip(sorted(engine_rows), sorted(reference_rows)):
        for a, b in zip(got, want):
            if isinstance(a, float) or isinstance(b, float):
                if not math.isclose(float(a), float(b), rel_tol=1e-9,
                                    abs_tol=1e-9):
                    return False
            elif int(a) != int(b):
                return False
    return True


def check(db, sql):
    """Both schedules of the chunk kernels — morsel by morsel and the
    whole column as one chunk — against the row-at-a-time evaluator,
    each on a fresh plan with nothing memoised."""
    spec = bind(sql, db, name="rand")
    reference_rows = execute_reference(spec, db)
    for execute in (execute_functional, execute_operators):
        caches.memo(db, "plan").clear()
        plan = Planner(db).plan(spec)
        engine_rows = execute(plan, db).payload.row_tuples()
        assert rows_match(engine_rows, reference_rows), (execute.__name__, sql)
    caches.memo(db, "plan").clear()


@given(seed=st.integers(0, 2), predicate=predicates())
@settings(max_examples=50, deadline=None)
def test_random_filtered_scan(seed, predicate):
    db = DATABASES[seed]
    check(db, "select x, y from f where {}".format(predicate))


@given(seed=st.integers(0, 2), predicate=predicates(),
       agg=st.sampled_from(["sum", "count", "min", "max", "avg"]),
       column=fact_columns)
@settings(max_examples=50, deadline=None)
def test_random_scalar_aggregate(seed, predicate, agg, column):
    db = DATABASES[seed]
    inner = "*" if agg == "count" else column
    check(db, "select {}({}) as v from f where {}".format(
        agg, inner, predicate))


@given(seed=st.integers(0, 2), predicate=predicates(max_conjuncts=2),
       agg=st.sampled_from(["sum", "count", "min", "max"]))
@settings(max_examples=40, deadline=None)
def test_random_grouped_aggregate(seed, predicate, agg):
    db = DATABASES[seed]
    inner = "*" if agg == "count" else "y"
    check(db, "select fk, {}({}) as v from f where {} group by fk".format(
        agg, inner, predicate))


@given(seed=st.integers(0, 2), predicate=predicates(max_conjuncts=2))
@settings(max_examples=40, deadline=None)
def test_random_join_aggregate(seed, predicate):
    db = DATABASES[seed]
    check(db, (
        "select w, sum(x) as s, count(*) as n from f, d "
        "where fk = id and {} group by w order by w"
    ).format(predicate))


#: (A, B): B is A's chain plus one more join, one more filter (on the
#: dimension: the join's build side changes, the fact scan does not) or
#: another ``group by`` — what a resumed recording starts from
FOLLOW_UPS = [
    ("select sum(x) as s from f where {p}",
     "select w, sum(x) as s, count(*) as n from f, d "
     "where fk = id and {p} group by w"),
    ("select w, count(*) as n from f, d where fk = id and {p} group by w",
     "select w, count(*) as n from f, d where fk = id and {p} and w {q} "
     "group by w"),
    ("select w, count(*) as n from f, d where fk = id and {p} group by w",
     "select fk, min(y) as lo, sum(x) as s from f, d "
     "where fk = id and {p} group by fk"),
    ("select x, y from f where {p}",
     "select distinct fk from f where {p}"),
]


@given(seed=st.integers(0, 2), predicate=predicates(max_conjuncts=2),
       pair=st.sampled_from(FOLLOW_UPS), op=comparison_ops,
       literal=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_random_statement_after_its_prefix(seed, predicate, pair, op,
                                           literal):
    """Two statements on one database, the plan cache kept between
    them: B, recorded from wherever A's recordings end, answers as the
    reference does and exactly as a cold B."""
    db = DATABASES[seed]
    first, second = (sql.format(p=predicate, q="{} {}".format(op, literal))
                     for sql in pair)

    def run(sql):
        plan = Planner(db).plan(bind(sql, db, name="rand"))
        return execute_functional(plan, db).payload.row_tuples()

    caches.memo(db, "plan").clear()
    cold = run(second)
    caches.memo(db, "plan").clear()
    run(first)
    resumed = run(second)
    caches.memo(db, "plan").clear()
    assert resumed == cold, (first, second)
    assert rows_match(resumed, execute_reference(
        bind(second, db, name="rand"), db)), (first, second)


@given(seed=st.integers(0, 2), predicate=predicates(max_conjuncts=2),
       threshold=st.integers(0, 20))
@settings(max_examples=30, deadline=None)
def test_random_having(seed, predicate, threshold):
    db = DATABASES[seed]
    check(db, (
        "select fk, count(*) as n from f where {} group by fk "
        "having n > {}"
    ).format(predicate, threshold))


@given(seed=st.integers(0, 2), predicate=predicates(max_conjuncts=2))
@settings(max_examples=30, deadline=None)
def test_random_distinct(seed, predicate):
    db = DATABASES[seed]
    check(db, "select distinct fk from f where {}".format(predicate))


@given(seed=st.integers(0, 2), predicate=predicates(max_conjuncts=2))
@settings(max_examples=20, deadline=None)
def test_random_query_simulated_matches_functional(seed, predicate):
    """The simulated executors return the functional result bit-for-bit."""
    from repro.harness import run_workload
    from repro.workloads import sql_workload

    db = DATABASES[seed]
    sql = (
        "select w, sum(y) as s from f, d where fk = id and {} group by w"
    ).format(predicate)
    queries = sql_workload(db, {"q": sql})
    expected = execute_functional(
        queries[0].template_plan(), db
    ).payload.row_tuples()
    run = run_workload(db, queries, "data_driven_chopping",
                       collect_results=True)
    assert run.results["q"].row_tuples() == expected
