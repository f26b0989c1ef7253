"""Column types.

All types are fixed width.  Strings are dictionary-encoded into 32-bit
codes; the dictionary is sorted, so code order equals lexicographic
order and range predicates evaluate directly on codes (as CoGaDB's
order-preserving dictionary compression does).
"""

from __future__ import annotations

import enum

import numpy as np


class ColumnType(enum.Enum):
    """Fixed-width storage types."""

    INT32 = "int32"
    INT64 = "int64"
    FLOAT32 = "float32"
    FLOAT64 = "float64"
    #: calendar date stored as yyyymmdd int32
    DATE = "date"
    #: dictionary-encoded string (int32 codes + sorted dictionary)
    STRING = "string"

    @property
    def numpy_dtype(self) -> np.dtype:
        """The dtype of the in-memory value array."""
        return _DTYPES[self._value_]

    @property
    def itemsize(self) -> int:
        """Bytes per value as stored (dictionary codes for strings)."""
        return _ITEMSIZES[self._value_]

    @property
    def is_numeric(self) -> bool:
        return self in (
            ColumnType.INT32,
            ColumnType.INT64,
            ColumnType.FLOAT32,
            ColumnType.FLOAT64,
        )


#: member value -> dtype / bytes per value.  Keyed by the value (a
#: ``str``, whose hash is cached) because hashing an enum member is a
#: Python-level call, and these sit under every column-width sum.
_DTYPES = {
    "int32": np.dtype(np.int32),
    "int64": np.dtype(np.int64),
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
    "date": np.dtype(np.int32),
    "string": np.dtype(np.int32),
}
_ITEMSIZES = {value: dtype.itemsize for value, dtype in _DTYPES.items()}
