"""A naive reference evaluator.

Executes a bound :class:`QuerySpec` row-at-a-time in pure Python —
deliberately sharing *no* execution code with the physical operators —
so integration tests and the service's identity check can cross-check
every workload query end to end.

It does the naive work without paying to interpret it per value:

* **decode once per call** — each column the query reads becomes one
  Python list the first time it is read (``values.tolist()``; strings
  through the dictionary): the ``int`` / ``float`` / ``str`` a row reads;
* **compile once per call** — :func:`_compile` turns each expression
  (filter, join key, group key, aggregate input, select item, HAVING)
  into a closure over one row, evaluating left to right and stopping
  AND / OR where ``all`` / ``any`` stop; an unknown node is a
  ``TypeError``;
* **a joined row is a tuple** of row positions, one per table in fold
  order.

What decides the answer stays naive: a row-by-row filter per table, a
FROM-order fold of dictionary hash joins, first-seen groups emitted in
``sorted`` key order, ``sum`` / ``min`` / ``max`` over the members in
order, DISTINCT by a seen-set, a ``cmp_to_key`` ORDER BY, a LIMIT slice.
Nothing is kept between calls, no numpy runs, and no operator, kernel or
``Expression.evaluate`` is called — a second implementation, which is
what an oracle has to be.

Output convention matches the engine: for aggregation queries the
columns are the group-by columns (in GROUP BY order) followed by the
aggregates (in SELECT order); strings are decoded.
"""

from __future__ import annotations

import functools
import operator
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

from repro.engine.expressions import (And, Arithmetic, Between, ColumnRef,
                                      Comparison, Expression, InList,
                                      Literal, Not, Or)
from repro.storage import ColumnType, Database

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.binder import QuerySpec

    #: a compiled expression: one row (shaped by ``column_of``) -> value
    Getter = Callable[[object], object]

#: SQL spelling -> the Python operator applied to two decoded values
_OPERATORS = MappingProxyType({
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "=": operator.eq, "<>": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
})


def _compile(expr: Expression, column_of: Callable[[str], Getter]) -> Getter:
    """``expr`` as a closure over one row; ``column_of(key)`` reads a
    column of that row."""
    if isinstance(expr, ColumnRef):
        return column_of(expr.key)
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, (Arithmetic, Comparison)):
        apply = _OPERATORS[expr.op]
        left = _compile(expr.left, column_of)
        right = _compile(expr.right, column_of)
        return lambda row: apply(left(row), right(row))
    if isinstance(expr, Between):
        value, low, high = (_compile(part, column_of)
                            for part in (expr.expr, expr.low, expr.high))

        def between(row):
            current = value(row)
            return low(row) <= current <= high(row)
        return between
    if isinstance(expr, InList):
        value, members = _compile(expr.expr, column_of), expr.values
        return lambda row: value(row) in members
    if isinstance(expr, (And, Or)):
        children = [_compile(child, column_of) for child in expr.children]
        # AND ends at the first false child, OR at the first true one
        decisive = isinstance(expr, Or)

        def junction(row):
            for child in children:
                if (not child(row)) is not decisive:
                    return decisive
            return not decisive
        return junction
    if isinstance(expr, Not):
        child = _compile(expr.child, column_of)
        return lambda row: not child(row)
    raise TypeError("unsupported expression {!r}".format(expr))


def execute_reference(spec: "QuerySpec", database: Database) -> List[tuple]:
    """Evaluate ``spec`` naively; returns rows as tuples."""
    decoded: Dict[str, list] = {}

    def column(key: str) -> list:
        if key not in decoded:
            source = database.column(key)
            values = source.values.tolist()
            if source.ctype is ColumnType.STRING:
                values = [source.dictionary[code] for code in values]
            decoded[key] = values
        return decoded[key]

    # 1. Per-table filters; a row is its position.
    filtered: Dict[str, Sequence[int]] = {}
    for table in spec.tables:
        predicate = spec.filters.get(table)
        rows = range(database.table(table).actual_rows)
        if predicate is not None:
            keep = _compile(predicate, lambda key: column(key).__getitem__)
            rows = [row for row in rows if keep(row)]
        filtered[table] = rows

    # 2. Joins: fold tables into tuples of row positions, one slot each.
    slots = {spec.tables[0]: 0}

    def joined(key: str) -> Getter:
        values, slot = column(key), slots[key.partition(".")[0]]
        return lambda row: values[row[slot]]

    assignments = [(row,) for row in filtered[spec.tables[0]]]
    remaining = list(spec.tables[1:])
    edges = list(spec.join_edges)
    while remaining:
        progressed = False
        for table in list(remaining):
            usable = [
                (left, right)
                for left, right in edges
                if (left.table == table and right.table in slots)
                or (right.table == table and left.table in slots)
            ]
            if not usable:
                continue
            left, right = usable[0]
            new_key, old_key = (left, right) if left.table == table else (right, left)
            # hash the new table's filtered rows on the join key
            buckets: Dict[object, List[int]] = {}
            new_values = column(new_key.key)
            for row in filtered[table]:
                buckets.setdefault(new_values[row], []).append(row)
            old_values, slot = column(old_key.key), slots[old_key.table]
            assignments = [a + (row,) for a in assignments
                           for row in buckets.get(old_values[a[slot]], ())]
            # this fold step's number is the slot it just appended
            slots[table] = len(spec.tables) - len(remaining)
            remaining.remove(table)
            progressed = True
        if not progressed:
            raise ValueError("disconnected join graph in reference evaluator")

    # 3. Output.
    if spec.is_aggregation:
        rows = _aggregate(spec, assignments, joined)
        if spec.having is not None:
            rows = _apply_having(spec, rows)
    else:
        items = [_compile(expr, joined) for _, expr in spec.select_items]
        rows = [tuple([item(a) for item in items]) for a in assignments]
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

    def output(key: str) -> Getter:
        name = key.partition(".")[2] or key
        return lambda row: row[names.index(name)]

    keep = _compile(spec.having, output)
    return [row for row in rows if keep(row)]


def output_names(spec: "QuerySpec") -> List[str]:
    """The query's output column names, in result-row order."""
    if spec.is_aggregation:
        return [ref.name for ref in spec.group_by] + [
            agg.alias for agg in spec.aggregates
        ]
    return [alias for alias, _ in spec.select_items]


def _aggregate(spec, assignments, joined) -> List[tuple]:
    keys = [_compile(ref, joined) for ref in spec.group_by]
    groups: Dict[tuple, List[tuple]] = {}
    for assignment in assignments:
        key = tuple([group(assignment) for group in keys])
        groups.setdefault(key, []).append(assignment)
    # A scalar aggregate over zero rows still yields one row.
    if not spec.group_by and not groups:
        groups[()] = []
    inputs = [None if aggregate.func == "count"
              else _compile(aggregate.expr, joined)
              for aggregate in spec.aggregates]
    rows = []
    for key in sorted(groups):
        members = groups[key]
        values = list(key)
        for aggregate, value in zip(spec.aggregates, inputs):
            data = members if value is None else [value(a) for a in members]
            values.append(_fold(aggregate.func, data))
        rows.append(tuple(values))
    return rows


def _fold(func: str, data: list):
    if func == "count":
        return len(data)
    if func == "sum":
        return sum(data) if data else 0
    if func == "avg":
        return sum(data) / len(data) if data else 0.0
    if func == "min":
        return min(data) if data else 0
    return max(data) if data else 0
