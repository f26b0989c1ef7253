"""The oracle of the oracle: ``engine.reference`` decodes each column
once and compiles each expression once per call, and must return
exactly what the row-interpreting evaluator it replaced returned.

That evaluator is kept below verbatim (``execute_reference``,
``_scalar``, ``_RowReader``, ``_apply_having``, ``output_names``,
``_aggregate``, ``_apply_aggregate``).  Every input is held to
``repr(compiled) == repr(interpreted)`` — types, float bits and row
order, before any sorting: every SSB and TPC-H template on two data
seeds, the 100 seeded ``sqlgen`` statements, the random-query strategy
of ``tests/test_random_queries.py`` and hand-written edge shapes.

Also here: ``compare_rows``'s exact-first check against the per-row
walk it short-cuts, and an ``ast`` guard on the independence the
evaluator's module docstring promises.
"""

import ast
import os
from types import MappingProxyType
from typing import Callable, Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import expressions
from repro.engine import reference as compiled
from repro.engine.expressions import (
    Aggregate,
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Literal,
    Not,
    Or,
)
from repro.harness import runner
from repro.harness.runner import ValidationError, _row_close
from repro.sql import bind
from repro.storage import ColumnType, Database
from repro.workloads import ssb, tpch

from benchmarks.e2e import sqlgen
from tests import test_random_queries as random_queries

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "src", "repro", "engine", "reference.py")


# ---------------------------------------------------------------------------
# The row-interpreting evaluator, verbatim
# ---------------------------------------------------------------------------

def _scalar(expr: Expression, getval: Callable[[str], object]):
    """Row-at-a-time expression evaluation on decoded Python values."""
    if isinstance(expr, ColumnRef):
        return getval(expr.key)
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Arithmetic):
        left = _scalar(expr.left, getval)
        right = _scalar(expr.right, getval)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right
    if isinstance(expr, Comparison):
        left = _scalar(expr.left, getval)
        right = _scalar(expr.right, getval)
        ops = {
            "=": lambda a, b: a == b,
            "<>": lambda a, b: a != b,
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
        }
        return ops[expr.op](left, right)
    if isinstance(expr, Between):
        value = _scalar(expr.expr, getval)
        return _scalar(expr.low, getval) <= value <= _scalar(expr.high, getval)
    if isinstance(expr, InList):
        return _scalar(expr.expr, getval) in expr.values
    if isinstance(expr, And):
        return all(_scalar(child, getval) for child in expr.children)
    if isinstance(expr, Or):
        return any(_scalar(child, getval) for child in expr.children)
    if isinstance(expr, Not):
        return not _scalar(expr.child, getval)
    raise TypeError("unsupported expression {!r}".format(expr))


class _RowReader:
    """Decoded value access for one table."""

    def __init__(self, database: Database, table: str):
        self._columns = {}
        for column in database.table(table).columns:
            self._columns[column.key] = column

    def value(self, key: str, row: int):
        column = self._columns[key]
        raw = column.values[row]
        if column.ctype is ColumnType.STRING:
            return column.dictionary[int(raw)]
        if column.ctype in (ColumnType.FLOAT32, ColumnType.FLOAT64):
            return float(raw)
        return int(raw)


def execute_reference(spec, database: Database) -> List[tuple]:
    """Evaluate ``spec`` naively; returns rows as tuples."""
    readers = {table: _RowReader(database, table) for table in spec.tables}

    def row_getter(assignment: Dict[str, int]) -> Callable[[str], object]:
        def getval(key: str):
            table = key.partition(".")[0]
            return readers[table].value(key, assignment[table])

        return getval

    # 1. Per-table filters.
    filtered: Dict[str, List[int]] = {}
    for table in spec.tables:
        predicate = spec.filters.get(table)
        rows = []
        n = database.table(table).actual_rows
        for row in range(n):
            if predicate is None or _scalar(
                predicate, row_getter({table: row})
            ):
                rows.append(row)
        filtered[table] = rows

    # 2. Joins: fold tables into tuples of row assignments.
    first = spec.tables[0]
    assignments: List[Dict[str, int]] = [{first: row} for row in filtered[first]]
    joined_tables = {first}
    remaining = [t for t in spec.tables[1:]]
    edges = list(spec.join_edges)
    while remaining:
        progressed = False
        for table in list(remaining):
            usable = [
                (left, right)
                for left, right in edges
                if (left.table == table and right.table in joined_tables)
                or (right.table == table and left.table in joined_tables)
            ]
            if not usable:
                continue
            left, right = usable[0]
            new_key, old_key = (left, right) if left.table == table else (right, left)
            # hash the new table's filtered rows on the join key
            buckets: Dict[object, List[int]] = {}
            for row in filtered[table]:
                value = readers[table].value(new_key.key, row)
                buckets.setdefault(value, []).append(row)
            joined = []
            for assignment in assignments:
                value = readers[old_key.table].value(
                    old_key.key, assignment[old_key.table]
                )
                for row in buckets.get(value, ()):
                    extended = dict(assignment)
                    extended[table] = row
                    joined.append(extended)
            assignments = joined
            joined_tables.add(table)
            remaining.remove(table)
            progressed = True
        if not progressed:
            raise ValueError("disconnected join graph in reference evaluator")

    # 3. Output.
    if spec.is_aggregation:
        rows = _aggregate(spec, assignments, row_getter)
        if spec.having is not None:
            rows = _apply_having(spec, rows)
    else:
        rows = [
            tuple(_scalar(expr, row_getter(a)) for _, expr in spec.select_items)
            for a in assignments
        ]
        if spec.distinct:
            seen = set()
            deduped = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            rows = deduped

    # 4. Order by (on output positions), then limit.
    if spec.order_by:
        names = output_names(spec)
        indices = [(names.index(name), asc) for name, asc in spec.order_by]

        import functools

        def compare(a, b):
            for index, ascending in indices:
                if a[index] == b[index]:
                    continue
                less = a[index] < b[index]
                if ascending:
                    return -1 if less else 1
                return 1 if less else -1
            return 0

        rows = sorted(rows, key=functools.cmp_to_key(compare))
    if spec.limit is not None:
        rows = rows[: spec.limit]
    return rows


def _apply_having(spec, rows: List[tuple]) -> List[tuple]:
    """Filter aggregated rows by the HAVING predicate."""
    names = output_names(spec)

    def keep(row):
        def getval(key: str):
            name = key.partition(".")[2] or key
            return row[names.index(name)]

        return _scalar(spec.having, getval)

    return [row for row in rows if keep(row)]


def output_names(spec) -> List[str]:
    """The query's output column names, in result-row order."""
    if spec.is_aggregation:
        return [ref.name for ref in spec.group_by] + [
            agg.alias for agg in spec.aggregates
        ]
    return [alias for alias, _ in spec.select_items]


def _aggregate(spec, assignments, row_getter) -> List[tuple]:
    groups: Dict[tuple, List[Dict[str, int]]] = {}
    for assignment in assignments:
        getval = row_getter(assignment)
        key = tuple(_scalar(ref, getval) for ref in spec.group_by)
        groups.setdefault(key, []).append(assignment)
    # A scalar aggregate over zero rows still yields one row.
    if not spec.group_by and not groups:
        groups[()] = []
    rows = []
    for key in sorted(groups):
        members = groups[key]
        values = list(key)
        for aggregate in spec.aggregates:
            values.append(_apply_aggregate(aggregate, members, row_getter))
        rows.append(tuple(values))
    return rows


def _apply_aggregate(aggregate: Aggregate, members, row_getter):
    if aggregate.func == "count":
        return len(members)
    data = [_scalar(aggregate.expr, row_getter(a)) for a in members]
    if aggregate.func == "sum":
        return sum(data) if data else 0
    if aggregate.func == "avg":
        return sum(data) / len(data) if data else 0.0
    if aggregate.func == "min":
        return min(data) if data else 0
    return max(data) if data else 0


# ---------------------------------------------------------------------------
# Identity: repr(compiled) == repr(interpreted)
# ---------------------------------------------------------------------------

def assert_identical(database, sql, name="q"):
    spec = bind(sql, database, name=name)
    want = execute_reference(spec, database)
    got = compiled.execute_reference(spec, database)
    assert repr(got) == repr(want), (name, sql)
    return got


@pytest.fixture(scope="module")
def second_seed():
    """The sizes of ``ssb_db`` / ``tpch_db``, other data seeds."""
    return {"ssb": ssb.generate(scale_factor=0.01, data_scale=0.01, seed=7),
            "tpch": tpch.generate(scale_factor=0.01, data_scale=0.01,
                                  seed=8)}


TEMPLATES = ([("ssb", name) for name in ssb.QUERIES]
             + [("tpch", name) for name in tpch.QUERIES])


@pytest.mark.parametrize("data_seed", ["conftest", "second"])
@pytest.mark.parametrize("suite,name", TEMPLATES)
def test_every_template_is_repr_identical(request, second_seed, suite, name,
                                          data_seed):
    database = (request.getfixturevalue(suite + "_db")
                if data_seed == "conftest" else second_seed[suite])
    module = {"ssb": ssb, "tpch": tpch}[suite]
    assert_identical(database, module.QUERIES[name], name)


def test_the_generated_statements_are_repr_identical(ssb_db):
    statements = sqlgen.generate(0, 100)
    nonempty = sum(bool(assert_identical(ssb_db, sql, name))
                   for name, sql in statements)
    assert nonempty >= 50


SHAPES = (
    "select x, y from f where {p}",
    "select {agg}({inner}) as v from f where {p}",
    "select fk, {agg}({inner}) as v from f where {p} group by fk",
    "select w, sum(x) as s, count(*) as n from f, d "
    "where fk = id and {p} group by w order by w",
    "select fk, count(*) as n from f where {p} group by fk having n > {t}",
    "select distinct fk from f where {p}",
    "select x, w from f, d where fk = id and {p}",
)


@given(seed=st.integers(0, 2), predicate=random_queries.predicates(),
       shape=st.sampled_from(SHAPES),
       agg=st.sampled_from(["sum", "count", "min", "max", "avg"]),
       threshold=st.integers(0, 20))
@settings(max_examples=100, deadline=None)
def test_random_queries_are_repr_identical(seed, predicate, shape, agg,
                                           threshold):
    sql = shape.format(p=predicate, agg=agg, t=threshold,
                       inner="*" if agg == "count" else "y")
    assert_identical(random_queries.DATABASES[seed], sql)


def _edge_database():
    """Strings, both float widths and a dimension, small enough to read."""
    rng = np.random.default_rng(17)
    db = Database("edges")
    n = 60
    t = db.create_table("t")
    t.add_column("a", ColumnType.INT32, rng.integers(-5, 40, n))
    t.add_column("g", ColumnType.INT32, rng.integers(1, 6, n))
    t.add_column("f", ColumnType.FLOAT64, rng.integers(1, 90, n) / 10.0)
    t.add_column("h", ColumnType.FLOAT32, rng.random(n) * 7.0)
    t.add_column("k", ColumnType.INT64, rng.integers(-10**12, 10**12, n))
    t.add_string_column("name", [["alpha", "beta", "kappa", "mu", "zeta"][i]
                                 for i in rng.integers(0, 5, n)])
    d = db.create_table("d")
    d.add_column("id", ColumnType.INT32, np.arange(1, 6))
    d.add_column("w", ColumnType.FLOAT64, np.array([0.1, 0.2, 0.3, 0.7, 1.1]))
    d.add_string_column("label", ["e", "d", "c", "b", "a"])
    return db


EDGES = {
    "filter selecting nothing": "select a, name from t where a > 1000",
    "scalar aggregates over zero rows":
        "select sum(a) as s, count(*) as n, avg(f) as m, min(h) as lo, "
        "max(k) as hi from t where a > 1000",
    "grouped aggregates over zero rows":
        "select g, sum(f) as s from t where a > 1000 group by g",
    "float sums and averages":
        "select g, sum(f) as s, avg(h) as m, min(f) as lo, max(h) as hi, "
        "count(a) as n from t group by g",
    "having": "select g, count(*) as n, sum(f) as s from t group by g "
              "having n > 9 and s / n > 4.5",
    "having with or / not":
        "select g, max(a) as m from t group by g "
        "having m between 30 and 38 or not (m > 20)",
    "distinct": "select distinct g, name from t where a < 20",
    "order by desc keys + limit":
        "select g, name, sum(a) as s from t group by g, name "
        "order by s desc, g, name desc limit 4",
    "order by non-aggregate + limit":
        "select a, f, name from t order by f desc, a limit 7",
    "in over strings": "select a, name from t where name in ('mu', 'zeta', "
                       "'omega')",
    "not in over strings": "select a from t where name not in ('alpha', 'mu')",
    "string ranges": "select name, a from t where name between 'b' and 'l' "
                     "or name >= 'z'",
    "unknown string": "select count(*) as n from t where name = 'omega'",
    "or / not": "select a, f from t where a < 3 or not (f > 2.5)",
    "nested and / or": "select a from t where (a < 10 and g = 2) "
                       "or (name = 'kappa' and not (h < 3.5))",
    "mixed int / float arithmetic":
        "select a / f as r, a / 2 as h2, f * 3 - a as m, k / 7 as q, "
        "a + h as s from t where a / 2 > 1.5",
    "join over a float dimension":
        "select label, sum(f * w) as s, count(*) as n from t, d "
        "where g = id and a > 5 group by label order by label desc",
    "join select items": "select a, label, w from t, d where g = id "
                         "and w < 0.5 and name <> 'mu'",
    "int64 keys": "select k, a from t where k > 0 and a in (1, 2, 3, 4, 5)",
}


@pytest.mark.parametrize("name", list(EDGES))
def test_edge_shapes_are_repr_identical(name):
    assert_identical(_edge_database(), EDGES[name], name)


class _Unsupported(Expression):
    def columns(self):
        return {"t.a"}

    def to_sql(self):
        return "mystery(t.a)"


def test_an_unknown_node_raises_the_same_type_error():
    database = _edge_database()
    spec = bind("select a from t where a > 1", database)
    spec.filters["t"] = _Unsupported()
    messages = []
    for evaluate in (execute_reference, compiled.execute_reference):
        with pytest.raises(TypeError) as error:
            evaluate(spec, database)
        messages.append(str(error.value))
    assert messages[0] == messages[1] == \
        "unsupported expression <_Unsupported mystery(t.a)>"


# ---------------------------------------------------------------------------
# compare_rows: exact first, the per-row walk only when that fails
# ---------------------------------------------------------------------------

def walk_compare_rows(name: str, got, want) -> None:
    """``compare_rows`` as it was: the per-row walk alone."""
    if len(got) != len(want):
        raise ValidationError(
            "{}: {} rows simulated vs {} rows reference".format(
                name, len(got), len(want)
            )
        )
    for got_row, want_row in zip(got, want):
        if not _row_close(got_row, want_row):
            raise ValidationError(
                "{}: {} != {}".format(name, got_row, want_row))


def _verdict(compare, got, want):
    try:
        compare("Q", got, want)
    except ValidationError as error:
        return str(error)
    return None


#: (case, got, want, the verdict: None passes, else the message)
COMPARE_CASES = [
    ("equal lists", [(1, 2.5, "a"), (2, 0.1, "b")],
     [(1, 2.5, "a"), (2, 0.1, "b")], None),
    ("both empty", [], [], None),
    ("floats 1e-12 apart", [(1, 0.3)], [(1, 0.3 + 1e-12)], None),
    ("floats 1e-6 apart", [(1, 0.3)], [(1, 0.3 + 1e-6)],
     "Q: (1, 0.3) != (1, 0.30000099999999996)"),
    ("int 3 against float 3.0", [(3,)], [(3.0,)], None),
    ("a different string", [("x", 1)], [("y", 1)],
     "Q: ('x', 1) != ('y', 1)"),
    ("different lengths", [(1,)], [(1,), (2,)],
     "Q: 1 rows simulated vs 2 rows reference"),
    ("the second row differs", [(1,), (2,)], [(1,), (3,)],
     "Q: (2,) != (3,)"),
]


@pytest.mark.parametrize("case,got,want,verdict", COMPARE_CASES,
                         ids=[case[0] for case in COMPARE_CASES])
def test_compare_rows_keeps_the_walks_verdict(case, got, want, verdict):
    assert _verdict(walk_compare_rows, got, want) == verdict
    assert _verdict(runner.compare_rows, got, want) == verdict


# ---------------------------------------------------------------------------
# Independence: the evaluator shares no execution code with the engine
# ---------------------------------------------------------------------------

def _runtime_nodes(tree):
    """Every node of ``tree`` outside ``if TYPE_CHECKING:`` blocks."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def test_the_oracle_imports_only_expression_nodes_and_storage():
    with open(REFERENCE) as handle:
        tree = ast.parse(handle.read())
    for node in _runtime_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] not in ("numpy", "repro"), \
                    alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            assert module.split(".")[0] != "numpy", module
            if module.split(".")[0] != "repro":
                continue
            assert module in ("repro.engine.expressions", "repro.storage"), \
                module
            if module == "repro.engine.expressions":
                for alias in node.names:
                    node_class = getattr(expressions, alias.name)
                    assert isinstance(node_class, type) and issubclass(
                        node_class, Expression), alias.name


def test_the_oracle_calls_no_engine_path():
    with open(REFERENCE) as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("evaluate", "probe", "gather"), \
                (node.attr, node.lineno)
        elif isinstance(node, ast.Name):
            assert node.id != "gather", node.lineno


def test_the_oracle_keeps_nothing_between_calls():
    """No module-level mutable binding, no ``global``, no mutable
    default argument: every list and dict lives and dies in one call."""
    with open(REFERENCE) as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            frozen = (isinstance(value, ast.Constant)
                      or (isinstance(value, ast.Tuple) and all(
                          isinstance(e, ast.Constant) for e in value.elts))
                      or (isinstance(value, ast.Call)
                          and isinstance(value.func, ast.Name)
                          and value.func.id in ("MappingProxyType",
                                                "frozenset")))
            assert frozen, ast.dump(node)
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Global), node.lineno
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            for default in node.args.defaults + node.args.kw_defaults:
                assert default is None or isinstance(default, ast.Constant), \
                    node.lineno
    assert isinstance(compiled._OPERATORS, MappingProxyType)
