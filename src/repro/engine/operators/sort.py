"""Sorting and limiting of materialised frames."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.engine.intermediates import OperatorResult, ResultFrame
from repro.engine.operators.base import PhysicalOperator
from repro.storage import Database


class Sort(PhysicalOperator):
    """Sort a ResultFrame by one or more keys.

    ``keys`` is a list of ``(column_name, ascending)`` pairs, highest
    priority first.  Dictionary-encoded columns sort correctly because
    the dictionaries are order-preserving.
    """

    kind = "sort"
    role = "tail"

    def __init__(self, child: PhysicalOperator,
                 keys: List[Tuple[str, bool]], label: str = ""):
        if not keys:
            raise ValueError("sort needs at least one key")
        super().__init__(children=[child], label=label or "Sort")
        self.keys = list(keys)

    def state_key(self):
        return (tuple((name, bool(asc)) for name, asc in self.keys),)

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        (child,) = child_results
        frame = child.payload
        if not isinstance(frame, ResultFrame):
            raise TypeError("Sort expects a ResultFrame input")
        # np.lexsort sorts by the *last* key first.
        sort_arrays = []
        for name, ascending in reversed(self.keys):
            values = frame.column(name)
            if ascending:
                sort_arrays.append(values)
            elif values.dtype.kind in "iu":
                # Exact integer negation: descending int64 keys beyond
                # 2^53 must not collapse into float64 ties.
                sort_arrays.append(-values.astype(np.int64))
            else:
                sort_arrays.append(-values.astype(np.float64))
        order = np.lexsort(sort_arrays) if sort_arrays else np.arange(len(frame))
        columns = {name: arr[order] for name, arr in frame.columns.items()}
        sorted_frame = ResultFrame(columns, frame.dictionaries)
        return OperatorResult(
            sorted_frame,
            actual_rows=len(sorted_frame),
            nominal_rows=child.nominal_rows,
            row_width_bytes=sorted_frame.width_bytes,
        )


class Limit(PhysicalOperator):
    """Keep the first ``n`` rows of a ResultFrame."""

    kind = "limit"
    role = "tail"

    def __init__(self, child: PhysicalOperator, n: int, label: str = ""):
        if n < 0:
            raise ValueError("limit must be >= 0")
        super().__init__(children=[child], label=label or "Limit({})".format(n))
        self.n = n

    def state_key(self):
        return (self.n,)

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        (child,) = child_results
        frame = child.payload
        if not isinstance(frame, ResultFrame):
            raise TypeError("Limit expects a ResultFrame input")
        columns = {name: arr[: self.n] for name, arr in frame.columns.items()}
        limited = ResultFrame(columns, frame.dictionaries)
        return OperatorResult(
            limited,
            actual_rows=len(limited),
            nominal_rows=min(child.nominal_rows, self.n),
            row_width_bytes=limited.width_bytes,
        )
