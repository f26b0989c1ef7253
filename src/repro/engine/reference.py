"""A naive reference evaluator.

Executes a bound :class:`QuerySpec` row-at-a-time in pure Python —
deliberately sharing *no* execution code with the physical operators —
so integration tests can cross-check every workload query end-to-end.

Output convention matches the engine: for aggregation queries the
columns are the group-by columns (in GROUP BY order) followed by the
aggregates (in SELECT order); strings are decoded.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

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
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.binder import QuerySpec
from repro.storage import ColumnType, Database


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


def execute_reference(spec: "QuerySpec", database: Database) -> List[tuple]:
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


def output_names(spec: "QuerySpec") -> List[str]:
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
