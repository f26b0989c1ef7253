"""Intermediate results flowing between operators.

CoGaDB materialises every operator output (Sec. 2.5).  Two payload
shapes exist:

* :class:`TidSet` — aligned row positions per base table (the output of
  selections and joins in a column store with positional processing).
  Entries are either materialised tid arrays or lazy
  :class:`SelectionVector` masks.
* :class:`ResultFrame` — materialised value columns (the output of
  aggregation, sorting, and final projection).

:class:`OperatorResult` wraps a payload with its actual and nominal
sizing plus placement bookkeeping filled in by the executors (where the
result lives, and the device heap allocation backing it).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np


class SelectionVector:
    """Lazily materialised selection over one base table.

    Carries a boolean ``mask`` over the table's rows — or, with
    ``mask=None``, stands for the whole table.  The ascending tid array
    is computed on first use and cached, so selection chains combine
    masks with boolean AND instead of paying ``flatnonzero`` + gather +
    ``intersect1d`` at every step, and full-table selections gather
    nothing at all.  Instances are immutable by convention: operators
    share them freely across cached results.
    """

    __slots__ = ("mask", "n", "_tids", "_count")

    def __init__(self, mask: Optional[np.ndarray] = None,
                 n: Optional[int] = None):
        if mask is None:
            if n is None:
                raise ValueError("SelectionVector needs a mask or a row count")
            self.mask = None
            self.n = int(n)
            self._count: Optional[int] = self.n
        else:
            mask = np.asarray(mask, dtype=bool)
            self.mask = mask
            self.n = len(mask)
            self._count = None
        self._tids: Optional[np.ndarray] = None

    @property
    def tids(self) -> np.ndarray:
        """Selected row positions, ascending (materialised on demand)."""
        if self._tids is None:
            if self.mask is None:
                self._tids = np.arange(self.n, dtype=np.int64)
            else:
                self._tids = np.flatnonzero(self.mask)
            self._count = len(self._tids)
        return self._tids

    def __len__(self) -> int:
        if self._count is None:
            self._count = int(np.count_nonzero(self.mask))
        return self._count

    @property
    def is_all(self) -> bool:
        """True when every row of the table is selected."""
        return len(self) == self.n

    def __repr__(self) -> str:
        return "<SelectionVector {}/{} rows{}>".format(
            len(self), self.n, " lazy" if self._tids is None else ""
        )


def gather(entry, column) -> np.ndarray:
    """``column`` values at ``entry`` — a tid array or a
    :class:`SelectionVector`.  A full-table selection returns the base
    array itself — no copy; downstream kernels treat input arrays as
    read-only."""
    if isinstance(entry, SelectionVector):
        if entry.is_all and entry.n == len(column.values):
            return column.values
        return column.gather(entry.tids)
    return column.gather(entry)


class TidSet:
    """Aligned row positions for one or more base tables.

    Each entry is a tid array or a :class:`SelectionVector`;
    :meth:`positions` always yields the materialised tid array.
    """

    def __init__(self, tables: Dict[str, np.ndarray]):
        if not tables:
            raise ValueError("a TidSet references at least one table")
        lengths = {name: len(tids) for name, tids in tables.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError("misaligned TidSet lengths: {}".format(lengths))
        self.tables = tables

    def __len__(self) -> int:
        return len(next(iter(self.tables.values())))

    def __contains__(self, table_name: str) -> bool:
        return table_name in self.tables

    @property
    def table_names(self) -> List[str]:
        return list(self.tables)

    def positions(self, table_name: str) -> np.ndarray:
        entry = self.tables[table_name]
        if isinstance(entry, SelectionVector):
            return entry.tids
        return entry

    def selection(self, table_name: str) -> Optional[SelectionVector]:
        """The table's lazy selection, if this entry carries one."""
        entry = self.tables.get(table_name)
        return entry if isinstance(entry, SelectionVector) else None

    def gather(self, table_name: str, column) -> np.ndarray:
        """``column`` values at this TidSet's positions for the table."""
        return gather(self.tables[table_name], column)

    def __repr__(self) -> str:
        return "<TidSet {} rows over {}>".format(len(self), self.table_names)


class ResultFrame:
    """Materialised output columns (optionally with string dictionaries)."""

    def __init__(
        self,
        columns: "Dict[str, np.ndarray]",
        dictionaries: Optional[Dict[str, List[str]]] = None,
    ):
        if not columns:
            raise ValueError("a ResultFrame has at least one column")
        lengths = {name: len(arr) for name, arr in columns.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError("misaligned frame lengths: {}".format(lengths))
        self.columns = columns
        self.dictionaries = dictionaries or {}
        #: per-column object-array view of the dictionary, built lazily
        #: so decoding is a single fancy-index instead of a Python loop
        self._dict_arrays: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def column_names(self) -> List[str]:
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def decoded(self, name: str):
        """Column values with dictionary codes mapped back to strings."""
        values = self.columns[name]
        dictionary = self.dictionaries.get(name)
        if dictionary is None:
            return list(values)
        lookup = self._dict_arrays.get(name)
        if lookup is None:
            lookup = np.asarray(dictionary, dtype=object)
            self._dict_arrays[name] = lookup
        return list(lookup.take(values))

    def row_tuples(self) -> List[tuple]:
        """All rows as tuples with strings decoded (for tests/output)."""
        decoded = [self.decoded(name) for name in self.column_names]
        return list(zip(*decoded)) if decoded else []

    @property
    def width_bytes(self) -> int:
        return sum(arr.dtype.itemsize for arr in self.columns.values())

    def __repr__(self) -> str:
        return "<ResultFrame {} rows x {}>".format(len(self), self.column_names)


class OperatorResult:
    """An operator output plus sizing and placement bookkeeping."""

    def __init__(self, payload, actual_rows: int, nominal_rows: int,
                 row_width_bytes: int):
        self.payload = payload
        self.actual_rows = int(actual_rows)
        self.nominal_rows = int(nominal_rows)
        self.row_width_bytes = int(row_width_bytes)
        #: name of the processor whose memory holds the result
        self.location: str = "cpu"
        #: device heap allocation backing the result, if on the GPU
        self.allocation = None
        #: consumers that still have to read this result
        self.pending_consumers: int = 0

    @property
    def nominal_bytes(self) -> int:
        """Paper-scale size of the materialised result."""
        return self.nominal_rows * self.row_width_bytes

    def release_device_memory(self) -> None:
        """Free the backing device allocation (idempotent)."""
        if self.allocation is not None:
            self.allocation.free()
            self.allocation = None

    def __repr__(self) -> str:
        return "<OperatorResult rows={} nominal={}B at {}>".format(
            self.actual_rows, self.nominal_bytes, self.location
        )
