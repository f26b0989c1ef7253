"""Binder: resolve a parsed statement against the catalog.

Produces a :class:`QuerySpec` — the strategic-optimizer-facing
description of a query: per-table filter predicates, equi-join edges,
aggregates, grouping, ordering.  The planner turns a QuerySpec into a
physical operator tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

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
    conjunction,
    conjuncts,
)
from repro.sql.ast import (
    ParsedAggregate,
    ParsedAnd,
    ParsedArith,
    ParsedBetween,
    ParsedColumn,
    ParsedComparison,
    ParsedIn,
    ParsedLiteral,
    ParsedNot,
    ParsedOr,
    SelectStatement,
)
from repro.storage import ColumnType, Database


class BindError(ValueError):
    """Raised when a statement does not resolve against the catalog."""


@dataclass
class QuerySpec:
    """A bound query, ready for planning."""

    name: str
    tables: List[str]
    #: per-table conjunctive filters
    filters: Dict[str, Expression] = field(default_factory=dict)
    #: equi-join edges as (left, right) column pairs
    join_edges: List[Tuple[ColumnRef, ColumnRef]] = field(default_factory=list)
    #: non-aggregate output items
    select_items: List[Tuple[str, Expression]] = field(default_factory=list)
    aggregates: List[Aggregate] = field(default_factory=list)
    group_by: List[ColumnRef] = field(default_factory=list)
    #: predicate over output columns (aggregate aliases / group names)
    having: Optional[Expression] = None
    #: duplicate elimination over the (non-aggregate) output
    distinct: bool = False
    #: output column names with sort direction
    order_by: List[Tuple[str, bool]] = field(default_factory=list)
    limit: Optional[int] = None

    @property
    def is_aggregation(self) -> bool:
        return bool(self.aggregates)

    def required_columns(self):
        """Base columns touched anywhere in the query."""
        keys = set()
        for predicate in self.filters.values():
            keys |= predicate.columns()
        for left, right in self.join_edges:
            keys.add(left.key)
            keys.add(right.key)
        for _, expr in self.select_items:
            keys |= expr.columns()
        for aggregate in self.aggregates:
            keys |= aggregate.columns()
        for ref in self.group_by:
            keys.add(ref.key)
        return keys


class _Binder:
    def __init__(self, statement: SelectStatement, database: Database, name: str):
        self.statement = statement
        self.database = database
        self.name = name
        for table in statement.tables:
            if table not in database:
                raise BindError("unknown table {!r}".format(table))

    # -- column resolution ---------------------------------------------

    def resolve(self, parsed: ParsedColumn) -> ColumnRef:
        if parsed.table is not None:
            if parsed.table not in self.statement.tables:
                raise BindError(
                    "table {!r} not in FROM clause".format(parsed.table)
                )
            if parsed.name not in self.database.table(parsed.table):
                raise BindError("no column {}".format(parsed))
            return ColumnRef(parsed.table, parsed.name)
        owners = [
            t for t in self.statement.tables
            if parsed.name in self.database.table(t)
        ]
        if not owners:
            raise BindError("unknown column {!r}".format(parsed.name))
        if len(owners) > 1:
            raise BindError(
                "ambiguous column {!r} (tables: {})".format(parsed.name, owners)
            )
        return ColumnRef(owners[0], parsed.name)

    # -- expressions ------------------------------------------------------

    def bind_expr(self, parsed) -> Expression:
        if isinstance(parsed, ParsedColumn):
            return self.resolve(parsed)
        if isinstance(parsed, ParsedLiteral):
            return Literal(parsed.value)
        if isinstance(parsed, ParsedArith):
            return Arithmetic(
                parsed.op, self.bind_expr(parsed.left), self.bind_expr(parsed.right)
            )
        raise BindError("unsupported expression {!r}".format(parsed))

    def check_literals(self, expr: Expression, values) -> None:
        """A string literal against a non-string column, or a number
        against a string one, is a :class:`BindError` — not a
        ``TypeError`` at the first run, nor dictionary codes compared
        with a number."""
        if not isinstance(expr, ColumnRef):
            return
        ctype = self.database.table(expr.table).column(expr.name).ctype
        for value in values:
            if isinstance(value, str) != (ctype is ColumnType.STRING):
                raise BindError("{} literal {!r} against {} column {}".format(
                    "string" if isinstance(value, str) else "numeric",
                    value, ctype.value, expr.key))

    def bind_predicate(self, parsed) -> Expression:
        if isinstance(parsed, ParsedComparison):
            left, right = self.bind_expr(parsed.left), self.bind_expr(parsed.right)
            for expr, other in ((left, right), (right, left)):
                if isinstance(other, Literal):
                    self.check_literals(expr, [other.value])
            return Comparison(parsed.op, left, right)
        if isinstance(parsed, ParsedBetween):
            bound = Between(
                self.bind_expr(parsed.expr),
                self.bind_expr(parsed.low),
                self.bind_expr(parsed.high),
            )
            self.check_literals(bound.expr, [
                end.value for end in (bound.low, bound.high)
                if isinstance(end, Literal)])
            return bound
        if isinstance(parsed, ParsedIn):
            bound = InList(self.bind_expr(parsed.expr), parsed.values)
            self.check_literals(bound.expr, parsed.values)
            if parsed.negated:
                return Not(bound)
            return bound
        if isinstance(parsed, ParsedAnd):
            return And([self.bind_predicate(c) for c in parsed.children])
        if isinstance(parsed, ParsedOr):
            return Or([self.bind_predicate(c) for c in parsed.children])
        if isinstance(parsed, ParsedNot):
            return Not(self.bind_predicate(parsed.child))
        raise BindError("unsupported predicate {!r}".format(parsed))

    # -- output-scope expressions (HAVING) -----------------------------

    def bind_output_expr(self, parsed, output_names) -> Expression:
        """Bind an expression over *output* columns (empty table part)."""
        if isinstance(parsed, ParsedColumn):
            if parsed.table is not None or parsed.name not in output_names:
                raise BindError(
                    "HAVING references {!r}, which is not an output "
                    "column".format(parsed)
                )
            return ColumnRef("", parsed.name)
        if isinstance(parsed, ParsedLiteral):
            if isinstance(parsed.value, str):
                raise BindError("string literals are not supported in HAVING")
            return Literal(parsed.value)
        if isinstance(parsed, ParsedArith):
            return Arithmetic(
                parsed.op,
                self.bind_output_expr(parsed.left, output_names),
                self.bind_output_expr(parsed.right, output_names),
            )
        raise BindError("unsupported HAVING expression {!r}".format(parsed))

    def bind_output_predicate(self, parsed, output_names) -> Expression:
        if isinstance(parsed, ParsedComparison):
            return Comparison(
                parsed.op,
                self.bind_output_expr(parsed.left, output_names),
                self.bind_output_expr(parsed.right, output_names),
            )
        if isinstance(parsed, ParsedBetween):
            return Between(
                self.bind_output_expr(parsed.expr, output_names),
                self.bind_output_expr(parsed.low, output_names),
                self.bind_output_expr(parsed.high, output_names),
            )
        if isinstance(parsed, ParsedIn):
            if any(isinstance(v, str) for v in parsed.values):
                raise BindError("string lists are not supported in HAVING")
            bound = InList(
                self.bind_output_expr(parsed.expr, output_names),
                parsed.values,
            )
            return Not(bound) if parsed.negated else bound
        if isinstance(parsed, ParsedAnd):
            return And([
                self.bind_output_predicate(c, output_names)
                for c in parsed.children
            ])
        if isinstance(parsed, ParsedOr):
            return Or([
                self.bind_output_predicate(c, output_names)
                for c in parsed.children
            ])
        if isinstance(parsed, ParsedNot):
            return Not(self.bind_output_predicate(parsed.child, output_names))
        raise BindError("unsupported HAVING predicate {!r}".format(parsed))

    # -- the statement ------------------------------------------------------

    def bind(self) -> QuerySpec:
        statement = self.statement
        spec = QuerySpec(name=self.name, tables=list(statement.tables))

        # WHERE: split conjuncts into join edges and per-table filters.
        if statement.where is not None:
            predicate = self.bind_predicate(statement.where)
            per_table: Dict[str, List[Expression]] = {}
            for conjunct in conjuncts(predicate):
                if isinstance(conjunct, Comparison) and conjunct.is_join_predicate:
                    spec.join_edges.append((conjunct.left, conjunct.right))
                    continue
                tables = {key.partition(".")[0] for key in conjunct.columns()}
                if not tables:
                    raise BindError(
                        "constant predicates are not supported: {}".format(
                            conjunct.to_sql()
                        )
                    )
                if len(tables) != 1:
                    raise BindError(
                        "only equi-join predicates may span tables: {}".format(
                            conjunct.to_sql()
                        )
                    )
                per_table.setdefault(tables.pop(), []).append(conjunct)
            for table, predicates in per_table.items():
                spec.filters[table] = conjunction(predicates)

        # SELECT list.
        auto_alias = 0
        for item in statement.items:
            if item.is_star:
                for table in statement.tables:
                    for column in self.database.table(table).columns:
                        spec.select_items.append(
                            (column.name, ColumnRef(table, column.name))
                        )
                continue
            if isinstance(item.expr, ParsedAggregate):
                inner = (
                    self.bind_expr(item.expr.expr)
                    if item.expr.expr is not None
                    else Literal(1)
                )
                alias = item.alias
                if alias is None:
                    auto_alias += 1
                    alias = "{}_{}".format(item.expr.func, auto_alias)
                spec.aggregates.append(Aggregate(item.expr.func, inner, alias))
                continue
            expr = self.bind_expr(item.expr)
            alias = item.alias
            if alias is None:
                if isinstance(expr, ColumnRef):
                    alias = expr.name
                else:
                    auto_alias += 1
                    alias = "expr_{}".format(auto_alias)
            spec.select_items.append((alias, expr))

        # GROUP BY.
        spec.group_by = [self.resolve(c) for c in statement.group_by]
        if spec.aggregates:
            group_names = {ref.name for ref in spec.group_by}
            for alias, expr in spec.select_items:
                if not isinstance(expr, ColumnRef) or expr.name not in group_names:
                    raise BindError(
                        "non-aggregate output {!r} must appear in GROUP BY".format(
                            alias
                        )
                    )

        # HAVING resolves against output column names.
        output_names = {alias for alias, _ in spec.select_items}
        output_names |= {agg.alias for agg in spec.aggregates}
        output_names |= {ref.name for ref in spec.group_by}
        if statement.having is not None:
            if not spec.aggregates:
                raise BindError("HAVING requires an aggregation")
            spec.having = self.bind_output_predicate(
                statement.having, output_names
            )

        # DISTINCT: grouped outputs are already duplicate-free.
        spec.distinct = statement.distinct and not spec.aggregates

        # ORDER BY resolves against output column names.
        for item in statement.order_by:
            name = item.column.name
            if name not in output_names:
                raise BindError("ORDER BY {!r} is not an output column".format(name))
            spec.order_by.append((name, item.ascending))

        spec.limit = statement.limit
        return spec


def bind(statement_or_sql: Union[SelectStatement, str], database: Database,
         name: str = "query") -> QuerySpec:
    """Bind a parsed statement (or SQL text) against ``database``."""
    if isinstance(statement_or_sql, str):
        from repro.sql.parser import parse

        statement = parse(statement_or_sql)
    else:
        statement = statement_or_sql
    return _Binder(statement, database, name).bind()
