"""Materialisation of selected columns."""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.engine.expressions import ColumnRef, Expression
from repro.engine.frame import Frame
from repro.engine.intermediates import OperatorResult, ResultFrame, TidSet
from repro.engine.operators.base import (
    OpEstimate,
    PhysicalOperator,
    TID_BYTES,
)
from repro.storage import ColumnType, Database


class Materialize(PhysicalOperator):
    """Gather output columns for a TidSet child (final projection).

    ``items`` is a list of ``(alias, expression)`` pairs; plain column
    references keep their dictionaries so strings decode.
    """

    kind = "projection"
    role = "project"
    #: result delivery gathers arbitrary output columns on the host;
    #: CoGaDB materialises final results in host memory.
    cpu_only = True

    def __init__(self, child: PhysicalOperator,
                 items: List[Tuple[str, Expression]], label: str = ""):
        if not items:
            raise ValueError("materialisation needs at least one item")
        super().__init__(children=[child], label=label or "Materialize")
        self.items = list(items)

    def state_key(self):
        return (tuple((alias, expr.to_sql()) for alias, expr in self.items),)

    def _read_columns(self) -> Set[str]:
        keys: Set[str] = set()
        for _, expr in self.items:
            keys |= expr.columns()
        return keys

    def _row_width(self, database: Database) -> int:
        """Bytes gathered per row: one value of every output column."""
        return sum(
            database.column(key).ctype.itemsize for key in self.required_columns()
        ) or TID_BYTES

    def input_nominal_bytes(self, database: Database,
                            child_results: List[OperatorResult]) -> int:
        (child,) = child_results
        return max(child.nominal_rows * self._row_width(database), TID_BYTES)

    def estimate(self, database: Database,
                 child_estimates: List[OpEstimate]) -> OpEstimate:
        (child,) = child_estimates
        width = self._row_width(database)
        return OpEstimate(
            child.out_rows * width, child.out_rows, child.out_rows * width
        )

    def project(self, database: Database, column_for) -> ResultFrame:
        """The output frame whose arrays ``column_for(alias, expr)``
        supplies — evaluated over a TidSet, a morsel, or merged chunks.
        Aliases projecting the same base column share one array
        (results are read-only downstream); plain string columns keep
        their dictionary so they decode."""
        columns: Dict[str, np.ndarray] = {}
        dictionaries: Dict[str, list] = {}
        shared: Dict[str, np.ndarray] = {}
        for alias, expr in self.items:
            if not isinstance(expr, ColumnRef):
                columns[alias] = column_for(alias, expr)
                continue
            array = shared.get(expr.key)
            if array is None:
                array = shared[expr.key] = column_for(alias, expr)
            columns[alias] = array
            meta = database.column(expr.key)
            if meta.ctype is ColumnType.STRING:
                dictionaries[alias] = meta.dictionary
        return ResultFrame(columns, dictionaries)

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        (child,) = child_results
        payload = child.payload
        if not isinstance(payload, TidSet):
            raise TypeError("Materialize expects a TidSet input")
        frame = Frame(database, payload.tables)
        frame_out = self.project(
            database, lambda alias, expr: np.asarray(expr.evaluate(frame))
        )
        return OperatorResult(
            frame_out,
            actual_rows=len(frame_out),
            nominal_rows=child.nominal_rows,
            row_width_bytes=frame_out.width_bytes,
        )
