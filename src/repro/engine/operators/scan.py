"""Selection operators."""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.engine import kernels
from repro.engine.expressions import Expression
from repro.engine.frame import Frame
from repro.engine.intermediates import OperatorResult, SelectionVector, TidSet
from repro.engine.operators.base import (
    PhysicalOperator,
    TID_BYTES,
    scaled_nominal_rows,
)
from repro.storage import Database


class ScanSelect(PhysicalOperator):
    """Scan a base table, returning the row positions matching a predicate.

    With ``predicate=None`` this is a plain scan producing all tids.
    This is the leaf operator of every plan: CoGaDB's pushed-down
    selections, modelled after the GPU selection of He et al. with its
    3.25x input heap footprint.
    """

    kind = "selection"

    def __init__(self, table: str, predicate: Optional[Expression] = None,
                 label: str = ""):
        super().__init__(children=[], label=label or "Scan({})".format(table))
        self.table = table
        self.predicate = predicate

    def state_key(self):
        return (self.table,
                self.predicate.to_sql() if self.predicate else None)

    def _read_columns(self) -> Set[str]:
        if self.predicate is None:
            return set()
        return self.predicate.columns()

    def input_nominal_bytes(self, database: Database,
                            child_results: List[OperatorResult]) -> int:
        return self.estimate_input_nominal_bytes(database)

    def estimate_input_nominal_bytes(self, database: Database) -> int:
        scanned = sum(
            database.column(key).nominal_bytes for key in self.required_columns()
        )
        if scanned:
            return scanned
        # A scan without predicate is a pure metadata operation (the
        # column store reads base columns in place, no tid list is
        # materialised).
        return TID_BYTES

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        table = database.table(self.table)
        cache = kernels.cache_for(database)
        if self.predicate is None:
            if cache is not None:
                entry = SelectionVector(n=table.actual_rows)
            else:
                entry = np.arange(table.actual_rows, dtype=np.int64)
            # No materialised intermediate: downstream operators read
            # the base columns directly.
            return OperatorResult(
                TidSet({self.table: entry}),
                actual_rows=table.actual_rows,
                nominal_rows=table.nominal_rows,
                row_width_bytes=0,
            )
        if cache is not None:
            mask = kernels.scan_mask(database, self.table, self.predicate,
                                     cache)
            if mask is None:
                mask = np.asarray(
                    self.predicate.evaluate(Frame(database)), dtype=bool
                )
            entry = SelectionVector(mask)
            n_out = len(entry)
        else:
            mask = self.predicate.evaluate(Frame(database))
            entry = np.flatnonzero(mask)
            n_out = len(entry)
        nominal = scaled_nominal_rows(n_out, table.actual_rows,
                                      table.nominal_rows)
        return OperatorResult(
            TidSet({self.table: entry}),
            actual_rows=n_out,
            nominal_rows=nominal,
            row_width_bytes=TID_BYTES,
        )


class RefineSelect(PhysicalOperator):
    """Refine a tid list with a further predicate on the same table.

    CoGaDB evaluates conjunctive selections as a chain of operators —
    the parallel selection workload of Appendix B.2 is exactly such a
    chain ("four different operators executed consecutively").  The
    refine step gathers the predicate columns at the input positions,
    so its footprint is proportional to the *intermediate* size, not
    the base column.
    """

    kind = "selection"

    def __init__(self, child: PhysicalOperator, table: str,
                 predicate: Expression, label: str = ""):
        super().__init__(children=[child],
                         label=label or "Refine({})".format(table))
        self.table = table
        self.predicate = predicate

    def state_key(self):
        return (self.table, self.predicate.to_sql())

    def _read_columns(self) -> Set[str]:
        return self.predicate.columns()

    def input_nominal_bytes(self, database: Database,
                            child_results: List[OperatorResult]) -> int:
        (child,) = child_results
        width = TID_BYTES + sum(
            database.column(key).ctype.itemsize for key in self.required_columns()
        )
        return max(child.nominal_rows * width, TID_BYTES)

    def estimate_input_nominal_bytes(self, database: Database) -> int:
        table_rows = database.table(self.table).nominal_rows
        width = TID_BYTES + sum(
            database.column(key).ctype.itemsize for key in self.required_columns()
        )
        return table_rows * width

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        (child,) = child_results
        selection = child.payload.selection(self.table)
        if selection is not None and kernels.enabled():
            # Lazy path: evaluate the predicate over the full column
            # (elementwise, so restriction commutes with evaluation)
            # and AND the masks — no gather, no flatnonzero.
            kernels.stats["masked_refines"] += 1
            mask = np.asarray(
                self.predicate.evaluate(Frame(database)), dtype=bool
            )
            if selection.mask is not None:
                mask = selection.mask & mask
            entry = SelectionVector(mask)
            n_out = len(entry)
        else:
            tids = child.payload.positions(self.table)
            frame = Frame(database, {self.table: tids})
            mask = self.predicate.evaluate(frame)
            entry = tids[np.flatnonzero(mask)]
            n_out = len(entry)
        nominal = scaled_nominal_rows(
            n_out, max(child.actual_rows, 1), child.nominal_rows
        )
        return OperatorResult(
            TidSet({self.table: entry}),
            actual_rows=n_out,
            nominal_rows=nominal,
            row_width_bytes=TID_BYTES,
        )


class TidIntersect(PhysicalOperator):
    """Positional AND of two tid lists over the same table.

    Used by the micro benchmarks (Appendix B.2), where one query is a
    chain of single-column selections combined positionally — the
    paper's "four different operators executed consecutively".
    """

    kind = "selection"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 table: str, label: str = ""):
        super().__init__(children=[left, right],
                         label=label or "TidAnd({})".format(table))
        self.table = table

    def state_key(self):
        return (self.table,)

    def input_nominal_bytes(self, database: Database,
                            child_results: List[OperatorResult]) -> int:
        return sum(r.nominal_bytes for r in child_results) or TID_BYTES

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        left, right = child_results
        left_sel = left.payload.selection(self.table)
        right_sel = right.payload.selection(self.table)
        if left_sel is not None and right_sel is not None and kernels.enabled():
            kernels.stats["masked_intersects"] += 1
            if left_sel.mask is None:
                entry = right_sel
            elif right_sel.mask is None:
                entry = left_sel
            else:
                entry = SelectionVector(left_sel.mask & right_sel.mask)
            n_out = len(entry)
        else:
            left_tids = left.payload.positions(self.table)
            right_tids = right.payload.positions(self.table)
            entry = np.intersect1d(left_tids, right_tids, assume_unique=True)
            n_out = len(entry)
        nominal = scaled_nominal_rows(
            n_out,
            max(left.actual_rows, 1),
            max(left.nominal_rows, right.nominal_rows),
        )
        return OperatorResult(
            TidSet({self.table: entry}),
            actual_rows=n_out,
            nominal_rows=nominal,
            row_width_bytes=TID_BYTES,
        )
