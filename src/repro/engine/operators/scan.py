"""Selection operators."""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.engine import kernels
from repro.engine.cardinality import estimate_selectivity
from repro.engine.expressions import Expression
from repro.engine.frame import Frame
from repro.engine.intermediates import OperatorResult, SelectionVector, TidSet
from repro.engine.operators.base import (
    OpEstimate,
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
    role = "scan"

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
        scanned = sum(
            database.column(key).nominal_bytes for key in self.required_columns()
        )
        if scanned:
            return scanned
        # A scan without predicate is a pure metadata operation (the
        # column store reads base columns in place, no tid list is
        # materialised).
        return TID_BYTES

    def estimate(self, database: Database,
                 child_estimates: List[OpEstimate]) -> OpEstimate:
        selectivity = estimate_selectivity(
            database, self.table, self.predicate
        )
        out_rows = selectivity * database.table(self.table).nominal_rows
        out_bytes = (
            out_rows * TID_BYTES if self.predicate is not None else 0.0
        )
        return OpEstimate(
            self.input_nominal_bytes(database, []), out_rows, out_bytes
        )

    def output_size(self, database: Database, n_out: int):
        """(actual rows, nominal rows, row width) of a scan that
        selected ``n_out`` rows."""
        table = database.table(self.table)
        if self.predicate is None:
            # No materialised intermediate: downstream operators read
            # the base columns directly.
            return table.actual_rows, table.nominal_rows, 0
        nominal = scaled_nominal_rows(n_out, table.actual_rows,
                                      table.nominal_rows)
        return n_out, nominal, TID_BYTES

    def select(self, frame, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Chunk kernel of both selections: the predicate over
        ``frame``'s rows, ANDed into the ``mask`` its chain has built
        so far (None: every row).  Predicates are elementwise, so the
        masks of consecutive row ranges concatenate to the mask of the
        whole column — the one-chunk call ``run()`` makes."""
        found = np.asarray(self.predicate.evaluate(frame), dtype=bool)
        return found if mask is None else mask & found

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        if self.predicate is None:
            entry = SelectionVector(n=database.table(self.table).actual_rows)
        else:
            entry = SelectionVector(self.select(Frame(database)))
        return OperatorResult(
            TidSet({self.table: entry}),
            *self.output_size(database, len(entry))
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
    role = "refine"

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

    def _row_width(self, database: Database) -> int:
        """Bytes gathered per input row: the tid plus one value of
        every predicate column."""
        return TID_BYTES + sum(
            database.column(key).ctype.itemsize for key in self.required_columns()
        )

    def input_nominal_bytes(self, database: Database,
                            child_results: List[OperatorResult]) -> int:
        (child,) = child_results
        return max(child.nominal_rows * self._row_width(database), TID_BYTES)

    def estimate(self, database: Database,
                 child_estimates: List[OpEstimate]) -> OpEstimate:
        (child,) = child_estimates
        selectivity = estimate_selectivity(
            database, self.table, self.predicate
        )
        return OpEstimate(
            child.out_rows * self._row_width(database),
            child.out_rows * selectivity,
            child.out_rows * selectivity * TID_BYTES,
        )

    def output_size(self, n_out: int, child_actual: int, child_nominal: int):
        """(actual rows, nominal rows, row width) of a refine that kept
        ``n_out`` of its child's rows."""
        nominal = scaled_nominal_rows(
            n_out, max(child_actual, 1), child_nominal
        )
        return n_out, nominal, TID_BYTES

    select = ScanSelect.select

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        (child,) = child_results
        selection = child.payload.selection(self.table)
        if selection is not None:
            # Lazy input: the whole column is the one chunk and the
            # child's mask the mask so far — no gather, no flatnonzero.
            kernels.stats["masked_refines"] += 1
            entry = SelectionVector(
                self.select(Frame(database), selection.mask))
        else:
            # A materialised tid array (the output of a join or of a
            # positional intersection): gather, evaluate, filter.
            tids = child.payload.positions(self.table)
            mask = self.select(Frame(database, {self.table: tids}))
            entry = tids[np.flatnonzero(mask)]
        return OperatorResult(
            TidSet({self.table: entry}),
            *self.output_size(len(entry), child.actual_rows,
                              child.nominal_rows)
        )


class TidIntersect(PhysicalOperator):
    """Positional AND of two tid lists over the same table.

    Used by the micro benchmarks (Appendix B.2), where one query is a
    chain of single-column selections combined positionally — the
    paper's "four different operators executed consecutively".
    """

    kind = "selection"
    role = "intersect"

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

    def estimate(self, database: Database,
                 child_estimates: List[OpEstimate]) -> OpEstimate:
        smaller = min(c.out_rows for c in child_estimates)
        return OpEstimate(
            sum(c.out_bytes for c in child_estimates),
            smaller * 0.5,
            smaller * 0.5 * TID_BYTES,
        )

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        left, right = child_results
        left_sel = left.payload.selection(self.table)
        right_sel = right.payload.selection(self.table)
        if left_sel is not None and right_sel is not None:
            kernels.stats["masked_intersects"] += 1
            if left_sel.mask is None:
                entry = right_sel
            elif right_sel.mask is None:
                entry = left_sel
            else:
                entry = SelectionVector(left_sel.mask & right_sel.mask)
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
