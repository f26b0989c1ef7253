"""Materialisation of selected columns."""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.engine.expressions import ColumnRef, Expression
from repro.engine.frame import Frame
from repro.engine.intermediates import OperatorResult, ResultFrame, TidSet
from repro.engine.operators.base import (
    ChunkPartial,
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

    # -- the partial algebra: partial / merge / finish --------------------

    #: row chunks always merge (by concatenation) ...
    supports_partials = True
    #: ... and no float sum is re-associated doing so
    compensated_terms = 0

    def bind(self, database: Database, tables: Sequence[str]) -> None:
        """Nothing to plan: a projection is the same over any input."""

    def _project(self, column_for) -> Dict[str, np.ndarray]:
        """alias → ``column_for(alias, expr)``; aliases projecting the
        same base column share one array (results are read-only
        downstream)."""
        columns: Dict[str, np.ndarray] = {}
        shared: Dict[str, np.ndarray] = {}
        for alias, expr in self.items:
            if not isinstance(expr, ColumnRef):
                columns[alias] = column_for(alias, expr)
                continue
            array = shared.get(expr.key)
            if array is None:
                array = shared[expr.key] = column_for(alias, expr)
            columns[alias] = array
        return columns

    def partial(self, frame, n_rows: int) -> "FramePartial":
        """Chunk kernel: the output columns over ``frame``'s rows — a
        morsel in the pool, the whole input for ``run()``."""
        return FramePartial(self._project(
            lambda alias, expr: np.asarray(expr.evaluate(frame))))

    def merge(self, partials: List["FramePartial"]) -> "FramePartial":
        """Chunks concatenated in ascending fact-row order, whatever
        order they arrived in: the rows of the one-chunk run."""
        chunks = sorted(partials, key=lambda partial: partial.index)
        return FramePartial(self._project(
            lambda alias, expr: np.concatenate(
                [chunk.columns[alias] for chunk in chunks])))

    def finish(self, database: Database, partial: "FramePartial",
               child_nominal: int) -> OperatorResult:
        """The result frame of one partial; plain string columns keep
        their dictionary so they decode."""
        dictionaries: Dict[str, list] = {}
        for alias, expr in self.items:
            if isinstance(expr, ColumnRef):
                meta = database.column(expr.key)
                if meta.ctype is ColumnType.STRING:
                    dictionaries[alias] = meta.dictionary
        frame_out = ResultFrame(partial.columns, dictionaries)
        return OperatorResult(
            frame_out,
            actual_rows=len(frame_out),
            nominal_rows=child_nominal,
            row_width_bytes=frame_out.width_bytes,
        )

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        (child,) = child_results
        payload = child.payload
        if not isinstance(payload, TidSet):
            raise TypeError("Materialize expects a TidSet input")
        frame = Frame(database, payload.tables)
        return self.finish(database, self.partial(frame, len(payload)),
                           child.nominal_rows)


class FramePartial(ChunkPartial):
    """Materialised column chunks of one row range, by alias."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        super().__init__()
        self.columns = columns
