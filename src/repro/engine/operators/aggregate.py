"""Group-by aggregation."""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from repro.engine.expressions import Aggregate, ColumnRef
from repro.engine.frame import Frame
from repro.engine.intermediates import OperatorResult, ResultFrame, TidSet
from repro.engine.operators.base import (
    OpEstimate,
    PhysicalOperator,
    TID_BYTES,
)
from repro.storage import ColumnType, Database


class GroupByAggregate(PhysicalOperator):
    """Hash aggregation over a TidSet child.

    Computes ``aggregates`` grouped by ``group_refs`` (possibly empty
    for a scalar aggregate).  Output is a materialised
    :class:`ResultFrame` whose group columns keep their dictionaries so
    string groups decode correctly.
    """

    kind = "groupby"
    role = "aggregate"

    def __init__(
        self,
        child: PhysicalOperator,
        group_refs: List[ColumnRef],
        aggregates: List[Aggregate],
        label: str = "",
    ):
        if not aggregates and not group_refs:
            raise ValueError("aggregation needs group columns or aggregates")
        super().__init__(children=[child], label=label or "GroupBy")
        self.group_refs = list(group_refs)
        self.aggregates = list(aggregates)

    def state_key(self):
        return (
            tuple(ref.key for ref in self.group_refs),
            tuple(agg.to_sql() for agg in self.aggregates),
        )

    def _read_columns(self) -> Set[str]:
        keys: Set[str] = set()
        for ref in self.group_refs:
            keys.add(ref.key)
        for aggregate in self.aggregates:
            keys |= aggregate.columns()
        return keys

    def _row_width(self) -> int:
        """Bytes per input row: one slot per group column and aggregate."""
        return TID_BYTES * (len(self.group_refs) + max(len(self.aggregates), 1))

    def input_nominal_bytes(self, database: Database,
                            child_results: List[OperatorResult]) -> int:
        (child,) = child_results
        return max(child.nominal_rows * self._row_width(), TID_BYTES)

    def estimate(self, database: Database,
                 child_estimates: List[OpEstimate]) -> OpEstimate:
        (child,) = child_estimates
        width = self._row_width()
        out_rows = min(child.out_rows, 10_000.0)
        return OpEstimate(
            child.out_rows * width, out_rows, out_rows * 2 * width
        )

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        (child,) = child_results
        payload = child.payload
        if not isinstance(payload, TidSet):
            raise TypeError("GroupByAggregate expects a TidSet input")
        frame = Frame(database, payload.tables)
        n_rows = len(payload)

        columns: Dict[str, np.ndarray] = {}
        dictionaries: Dict[str, list] = {}

        if self.group_refs:
            group_arrays = [
                np.asarray(ref.evaluate(frame)) for ref in self.group_refs
            ]
            if len(group_arrays) == 1:
                # Single-key grouping skips the row-matrix stack; the
                # 1-D unique yields the same sorted groups and inverse.
                uniques, inverse = np.unique(
                    group_arrays[0], return_inverse=True
                )
                group_columns = [uniques.astype(group_arrays[0].dtype)]
            else:
                stacked = np.stack(group_arrays, axis=1)
                uniques, inverse = np.unique(
                    stacked, axis=0, return_inverse=True
                )
                group_columns = [
                    uniques[:, i].astype(group_arrays[i].dtype)
                    for i in range(len(group_arrays))
                ]
            n_groups = len(uniques)
            for i, ref in enumerate(self.group_refs):
                name = ref.name
                columns[name] = group_columns[i]
                meta = database.column(ref.key)
                if meta.ctype is ColumnType.STRING:
                    dictionaries[name] = meta.dictionary
        else:
            # the one group of an ungrouped aggregate exists even over
            # zero rows
            inverse = np.zeros(n_rows, dtype=np.int64)
            n_groups = 1

        counts = np.bincount(inverse, minlength=n_groups)
        for aggregate in self.aggregates:
            reduced, is_integer = reduce_groups(aggregate, frame, inverse,
                                                n_groups)
            columns[aggregate.alias] = finish_aggregate(
                aggregate.func, counts, reduced, is_integer
            )

        frame_out = ResultFrame(columns, dictionaries)
        return OperatorResult(
            frame_out,
            actual_rows=len(frame_out),
            nominal_rows=len(frame_out),
            row_width_bytes=frame_out.width_bytes,
        )


def reduce_groups(aggregate: Aggregate, frame, inverse: np.ndarray,
                  n_groups: int):
    """Reduce one aggregate's input over rows labelled ``inverse``:
    float64 per-group sums (``sum``/``avg``) or extrema (±inf where a
    group is empty) — None for ``count``, which reads no input — plus
    whether the input was integer.  Sums accumulate in row order, so
    every caller rounds alike."""
    if aggregate.func == "count":
        return None, True
    values = np.asarray(aggregate.expr.evaluate(frame))
    if values.dtype == np.int32:
        values = values.astype(np.int64)
    if aggregate.func in ("sum", "avg"):
        # float64 even over zero rows, where bincount alone gives int64
        reduced = np.bincount(
            inverse, weights=values, minlength=n_groups
        ).astype(np.float64, copy=False)
    elif aggregate.func == "min":
        reduced = np.full(n_groups, np.inf)
        np.minimum.at(reduced, inverse, values)
    else:
        reduced = np.full(n_groups, -np.inf)
        np.maximum.at(reduced, inverse, values)
    return reduced, bool(np.issubdtype(values.dtype, np.integer))


def finish_aggregate(func: str, counts: np.ndarray, reduced,
                     is_integer: bool) -> np.ndarray:
    """The result rules of one aggregate column, shared by
    :class:`GroupByAggregate` and the fused pipelines' breaker: counts
    and integer sums are int64 (sums rounded from their float64
    accumulator), ``avg`` divides by the group's row count, and empty
    groups yield 0 (no NULLs in this engine, matching the reference
    evaluator's convention)."""
    if func == "count":
        return counts.astype(np.int64)
    if func == "sum":
        return np.round(reduced).astype(np.int64) if is_integer else reduced
    if func == "avg":
        return reduced / np.maximum(counts, 1)
    finite = np.isfinite(reduced)
    if is_integer:
        result = np.zeros(len(reduced), dtype=np.int64)
        result[finite] = reduced[finite].astype(np.int64)
        return result
    return np.where(finite, reduced, 0.0)
