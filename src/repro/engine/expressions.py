"""Scalar and predicate expressions.

Expressions are evaluated vectorised over a :class:`~repro.engine.frame.Frame`
(a mapping from column keys to numpy arrays).  String literals are
resolved against the referenced column's order-preserving dictionary,
so comparisons and ranges work directly on int32 codes.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Union

import numpy as np

from repro.storage import Column, ColumnType

#: Comparison operators in SQL spelling.
COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
#: Arithmetic operators.
ARITHMETIC_OPS = ("+", "-", "*", "/")


class Expression:
    """Base class for all expressions."""

    def columns(self) -> Set[str]:
        """Keys of every base column the expression reads."""
        raise NotImplementedError

    def evaluate(self, frame) -> np.ndarray:
        """Vectorised evaluation over a frame."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return "<{} {}>".format(type(self).__name__, self.to_sql())

    def to_sql(self) -> str:
        raise NotImplementedError


class ColumnRef(Expression):
    """Reference to ``table.column``."""

    def __init__(self, table: str, name: str):
        self.table = table
        self.name = name
        #: the ``table.column`` catalog key
        self.key = "{}.{}".format(table, name)

    def columns(self) -> Set[str]:
        return {self.key}

    def evaluate(self, frame) -> np.ndarray:
        return frame.array(self.key)

    def to_sql(self) -> str:
        return self.key

    def __eq__(self, other) -> bool:
        return isinstance(other, ColumnRef) and other.key == self.key

    def __hash__(self) -> int:
        return hash(("columnref", self.key))


class Literal(Expression):
    """A constant (number or string)."""

    def __init__(self, value: Union[int, float, str]):
        self.value = value

    def columns(self) -> Set[str]:
        return set()

    def evaluate(self, frame):
        return self.value

    def to_sql(self) -> str:
        if isinstance(self.value, str):
            return "'{}'".format(self.value)
        return str(self.value)


class Arithmetic(Expression):
    """Binary arithmetic over numeric expressions."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in ARITHMETIC_OPS:
            raise ValueError("unknown arithmetic operator {!r}".format(op))
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> Set[str]:
        return self.left.columns() | self.right.columns()

    def evaluate(self, frame):
        left = self.left.evaluate(frame)
        right = self.right.evaluate(frame)
        if self.op == "+":
            return left + right
        if self.op == "-":
            return left - right
        if self.op == "*":
            # Promote to int64/float to avoid overflow of int32 products
            # (revenue = extendedprice * discount easily overflows).
            left = _widen(left)
            right = _widen(right)
            return left * right
        return _widen(left) / _widen(right)

    def to_sql(self) -> str:
        return "({} {} {})".format(self.left.to_sql(), self.op, self.right.to_sql())


def _widen(value):
    """Promote int32 arrays to int64 before multiplying/dividing."""
    if isinstance(value, np.ndarray) and value.dtype == np.int32:
        return value.astype(np.int64)
    return value


def _encode_literal(ref: ColumnRef, literal, frame, op: str):
    """Translate a string literal to a dictionary code for ``ref``."""
    if not isinstance(literal, str):
        return literal
    column = frame.column_meta(ref.key)
    if column.ctype is not ColumnType.STRING:
        raise TypeError(
            "string literal compared against non-string column {}".format(ref.key)
        )
    if op in ("=", "<>"):
        code = column.encode(literal)
        return code  # -1 selects nothing for '=', everything for '<>'
    if op in ("<", "<="):
        # x <  s  <=>  code(x) <= ub(s') ... express via bounds:
        # x <= s  <=>  code(x) <= upper_bound(s)
        # x <  s  <=>  code(x) <  lower_bound(s) is wrong for absent s;
        # use: x < s <=> code(x) <= lower_bound(s) - 1
        if op == "<=":
            return column.encode_upper_bound(literal)
        return column.encode_lower_bound(literal) - 1
    if op in (">", ">="):
        if op == ">=":
            return column.encode_lower_bound(literal)
        return column.encode_upper_bound(literal) + 1
    raise ValueError("unsupported operator {!r} for string literal".format(op))


class Comparison(Expression):
    """``left op right`` where op is one of ``=, <>, <, <=, >, >=``."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in COMPARISON_OPS:
            raise ValueError("unknown comparison operator {!r}".format(op))
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> Set[str]:
        return self.left.columns() | self.right.columns()

    @property
    def is_join_predicate(self) -> bool:
        """True for column = column across two tables."""
        return (
            self.op == "="
            and isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
            and self.left.table != self.right.table
        )

    def evaluate(self, frame) -> np.ndarray:
        left = self.left.evaluate(frame)
        right = self.right.evaluate(frame)
        op = self.op
        # String literals: rewrite against the dictionary.  After the
        # rewrite, <= / >= semantics capture < / > correctly.
        if isinstance(self.left, ColumnRef) and isinstance(right, str):
            right = _encode_literal(self.left, right, frame, op)
            if op == "<":
                op = "<="
            elif op == ">":
                op = ">="
        elif isinstance(self.right, ColumnRef) and isinstance(left, str):
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            return Comparison(flipped, self.right, self.left).evaluate(frame)
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right

    def to_sql(self) -> str:
        return "{} {} {}".format(self.left.to_sql(), self.op, self.right.to_sql())


class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive)."""

    def __init__(self, expr: Expression, low: Expression, high: Expression):
        self.expr = expr
        self.low = low
        self.high = high

    def columns(self) -> Set[str]:
        return self.expr.columns() | self.low.columns() | self.high.columns()

    def evaluate(self, frame) -> np.ndarray:
        lower = Comparison(">=", self.expr, self.low).evaluate(frame)
        upper = Comparison("<=", self.expr, self.high).evaluate(frame)
        return lower & upper

    def to_sql(self) -> str:
        return "{} BETWEEN {} AND {}".format(
            self.expr.to_sql(), self.low.to_sql(), self.high.to_sql()
        )


class InList(Expression):
    """``expr IN (v1, v2, ...)``."""

    def __init__(self, expr: Expression, values: Sequence):
        self.expr = expr
        self.values = list(values)

    def columns(self) -> Set[str]:
        return self.expr.columns()

    def evaluate(self, frame) -> np.ndarray:
        data = self.expr.evaluate(frame)
        values = self.values
        if values and isinstance(values[0], str):
            if not isinstance(self.expr, ColumnRef):
                raise TypeError("IN over strings requires a column reference")
            column = frame.column_meta(self.expr.key)
            values = [column.encode(v) for v in values]
        result = np.zeros(len(data), dtype=bool)
        for value in values:
            result |= data == value
        return result

    def to_sql(self) -> str:
        rendered = ", ".join(
            "'{}'".format(v) if isinstance(v, str) else str(v) for v in self.values
        )
        return "{} IN ({})".format(self.expr.to_sql(), rendered)


class And(Expression):
    """Conjunction of predicates."""

    def __init__(self, children: Iterable[Expression]):
        self.children = list(children)
        if not self.children:
            raise ValueError("AND needs at least one child")

    def columns(self) -> Set[str]:
        keys: Set[str] = set()
        for child in self.children:
            keys |= child.columns()
        return keys

    def evaluate(self, frame) -> np.ndarray:
        result = self.children[0].evaluate(frame)
        for child in self.children[1:]:
            result = result & child.evaluate(frame)
        return result

    def to_sql(self) -> str:
        return "(" + " AND ".join(c.to_sql() for c in self.children) + ")"


class Or(Expression):
    """Disjunction of predicates."""

    def __init__(self, children: Iterable[Expression]):
        self.children = list(children)
        if not self.children:
            raise ValueError("OR needs at least one child")

    def columns(self) -> Set[str]:
        keys: Set[str] = set()
        for child in self.children:
            keys |= child.columns()
        return keys

    def evaluate(self, frame) -> np.ndarray:
        result = self.children[0].evaluate(frame)
        for child in self.children[1:]:
            result = result | child.evaluate(frame)
        return result

    def to_sql(self) -> str:
        return "(" + " OR ".join(c.to_sql() for c in self.children) + ")"


class Not(Expression):
    """Negation."""

    def __init__(self, child: Expression):
        self.child = child

    def columns(self) -> Set[str]:
        return self.child.columns()

    def evaluate(self, frame) -> np.ndarray:
        return ~self.child.evaluate(frame)

    def to_sql(self) -> str:
        return "NOT ({})".format(self.child.to_sql())


#: Supported aggregate functions.
AGGREGATE_FUNCS = ("sum", "count", "avg", "min", "max")


class Aggregate:
    """An aggregate in a SELECT list: ``func(expr) AS alias``."""

    def __init__(self, func: str, expr: Expression, alias: str):
        func = func.lower()
        if func not in AGGREGATE_FUNCS:
            raise ValueError("unknown aggregate {!r}".format(func))
        self.func = func
        self.expr = expr
        self.alias = alias

    def columns(self) -> Set[str]:
        return self.expr.columns()

    def to_sql(self) -> str:
        return "{}({}) AS {}".format(self.func, self.expr.to_sql(), self.alias)

    def __repr__(self) -> str:
        return "<Aggregate {}>".format(self.to_sql())


def conjuncts(predicate: Expression) -> List[Expression]:
    """Flatten nested ANDs into a list of conjuncts."""
    if isinstance(predicate, And):
        result: List[Expression] = []
        for child in predicate.children:
            result.extend(conjuncts(child))
        return result
    return [predicate]


def conjunction(predicates: Sequence[Expression]):
    """Combine predicates into one expression (None for empty input)."""
    predicates = [p for p in predicates if p is not None]
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return And(predicates)
