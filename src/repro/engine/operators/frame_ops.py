"""Operators over materialised frames: DISTINCT and HAVING."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.engine.expressions import Expression
from repro.engine.intermediates import OperatorResult, ResultFrame
from repro.engine.operators.base import PhysicalOperator
from repro.storage import Database


def _row_groups(frame: ResultFrame) -> np.ndarray:
    """Compact group id per row over all columns of the frame."""
    n = len(frame)
    key = np.zeros(n, dtype=np.int64)
    for array in frame.columns.values():
        _, inverse = np.unique(array, return_inverse=True)
        combined = key * (int(inverse.max()) + 1 if n else 1) + inverse
        _, key = np.unique(combined, return_inverse=True)
    return key


class Distinct(PhysicalOperator):
    """Duplicate elimination over a ResultFrame (SELECT DISTINCT).

    Keeps the first occurrence of every distinct row, in input order.
    """

    kind = "groupby"
    role = "tail"

    def __init__(self, child: PhysicalOperator, label: str = ""):
        super().__init__(children=[child], label=label or "Distinct")

    def state_key(self):
        return ()

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        (child,) = child_results
        frame = child.payload
        if not isinstance(frame, ResultFrame):
            raise TypeError("Distinct expects a ResultFrame input")
        if len(frame) == 0:
            keep = np.empty(0, dtype=np.int64)
        else:
            key = _row_groups(frame)
            _, first = np.unique(key, return_index=True)
            keep = np.sort(first)
        columns = {name: arr[keep] for name, arr in frame.columns.items()}
        deduped = ResultFrame(columns, frame.dictionaries)
        ratio = len(deduped) / max(len(frame), 1)
        return OperatorResult(
            deduped,
            actual_rows=len(deduped),
            nominal_rows=int(round(child.nominal_rows * ratio)),
            row_width_bytes=deduped.width_bytes,
        )


class _FrameResolver:
    """Adapter letting expressions read a ResultFrame's columns.

    HAVING predicates reference *output* columns (aggregate aliases or
    group columns); column keys are bare names with an empty table part.
    """

    def __init__(self, frame: ResultFrame):
        self._frame = frame

    def array(self, key: str):
        name = key.partition(".")[2] or key
        return self._frame.column(name)

    def column_meta(self, key: str):
        raise TypeError(
            "string-dictionary predicates are not supported in HAVING"
        )


class FrameFilter(PhysicalOperator):
    """Filter a ResultFrame by a predicate over its columns (HAVING)."""

    kind = "selection"
    role = "tail"

    def __init__(self, child: PhysicalOperator, predicate: Expression,
                 label: str = ""):
        super().__init__(children=[child], label=label or "Having")
        self.predicate = predicate

    def state_key(self):
        return (self.predicate.to_sql(),)

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        (child,) = child_results
        frame = child.payload
        if not isinstance(frame, ResultFrame):
            raise TypeError("FrameFilter expects a ResultFrame input")
        mask = np.asarray(
            self.predicate.evaluate(_FrameResolver(frame)), dtype=bool
        )
        columns = {name: arr[mask] for name, arr in frame.columns.items()}
        filtered = ResultFrame(columns, frame.dictionaries)
        ratio = len(filtered) / max(len(frame), 1)
        return OperatorResult(
            filtered,
            actual_rows=len(filtered),
            nominal_rows=int(round(child.nominal_rows * ratio)),
            row_width_bytes=filtered.width_bytes,
        )
