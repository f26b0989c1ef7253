"""Evaluation frames.

A :class:`Frame` resolves column references during expression
evaluation.  It binds a database plus (optionally) per-table row
positions, so the same expression code evaluates over full base tables,
selection intermediates (tid lists), and join results (aligned tid
lists per table).  A :class:`BlockFrame` resolves them over one
contiguous row range of the base tables — a morsel.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.engine.intermediates import gather
from repro.storage import Column, Database


class Frame:
    """Column resolver for expression evaluation.

    Position entries are tid arrays or lazy
    :class:`~repro.engine.intermediates.SelectionVector` masks; a
    full-table selection resolves to the base array with no copy.
    Gathers are memoised per frame (expressions never mutate their
    inputs), so a predicate reading one column twice pays one gather.
    """

    def __init__(
        self,
        database: Database,
        positions: Optional[Dict[str, np.ndarray]] = None,
    ):
        self._database = database
        self._positions = positions
        self._arrays: Dict[str, np.ndarray] = {}

    def array(self, key: str) -> np.ndarray:
        """Values of ``table.column`` at this frame's row positions."""
        column = self._database.column(key)
        if self._positions is None:
            return column.values
        cached = self._arrays.get(key)
        if cached is not None:
            return cached
        table_name = key.partition(".")[0]
        try:
            positions = self._positions[table_name]
        except KeyError:
            raise KeyError(
                "frame has no positions for table {!r} (needed by {})".format(
                    table_name, key
                )
            )
        values = self._arrays[key] = gather(positions, column)
        return values

    def column_meta(self, key: str) -> Column:
        """The column object (for dictionary lookups)."""
        return self._database.column(key)


class BlockFrame:
    """Frame over one contiguous row range of a base table.

    Predicates are elementwise, so evaluating over a slice of the
    column arrays equals the full evaluation restricted to the slice.
    A fresh instance covers the range ``(0, 0)``: the empty frame.
    """

    __slots__ = ("_database", "_start", "_stop")

    def __init__(self, database):
        self._database = database
        self._start = 0
        self._stop = 0

    def set_range(self, start: int, stop: int) -> None:
        self._start = start
        self._stop = stop

    def array(self, key: str) -> np.ndarray:
        return self._database.column(key).values[self._start:self._stop]

    def column_meta(self, key: str):
        return self._database.column(key)
