"""Columns: actual values plus nominal (paper-scale) sizing."""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.storage.types import ColumnType


class Column:
    """One attribute of a table.

    ``values`` is the *actual* numpy array used for functional
    execution.  ``nominal_rows`` is the row count the column would have
    at the experiment's scale factor; every cost, cache, and heap
    computation uses :attr:`nominal_bytes`.  When ``nominal_rows`` is
    omitted the column is unscaled (nominal == actual).
    """

    def __init__(
        self,
        table: str,
        name: str,
        ctype: ColumnType,
        values: np.ndarray,
        nominal_rows: Optional[int] = None,
        dictionary: Optional[List[str]] = None,
    ):
        if values.ndim != 1:
            raise ValueError("columns are one-dimensional")
        expected = ctype.numpy_dtype
        if values.dtype != expected:
            values = values.astype(expected)
        if ctype is ColumnType.STRING and dictionary is None:
            raise ValueError("string columns need a dictionary")
        if ctype is not ColumnType.STRING and dictionary is not None:
            raise ValueError("only string columns carry a dictionary")
        self.table = table
        self.name = name
        self.ctype = ctype
        self.values = values
        self.nominal_rows = int(nominal_rows) if nominal_rows is not None else len(values)
        self.dictionary = dictionary
        #: set by repro.storage.compression: (codec name, measured
        #: compressed/uncompressed ratio); shrinks nominal_bytes
        self.compression = None
        # Lazily built encode/decode accelerators over the (immutable)
        # dictionary: string -> code map, bound-lookup memo, and an
        # object-array view for vectorised decoding.
        self._code_of: Optional[Dict[str, int]] = None
        self._bound_cache: Optional[Dict] = None
        self._dict_array: Optional[np.ndarray] = None

    # -- identity -----------------------------------------------------

    @property
    def key(self) -> str:
        """Globally unique column identifier, ``table.column``."""
        return "{}.{}".format(self.table, self.name)

    def __repr__(self) -> str:
        return "<Column {} {} rows={} nominal={}>".format(
            self.key, self.ctype.value, len(self.values), self.nominal_rows
        )

    # -- sizing --------------------------------------------------------

    @property
    def actual_rows(self) -> int:
        return len(self.values)

    @property
    def nominal_bytes(self) -> int:
        """Paper-scale size: what the column would occupy on the device
        (after compression, if a codec has been applied)."""
        raw = self.nominal_rows * self.ctype.itemsize
        if self.compression is not None:
            return int(raw * self.compression.ratio)
        return raw

    @property
    def actual_bytes(self) -> int:
        return self.values.nbytes

    # -- string encoding ------------------------------------------------

    @classmethod
    def from_strings(
        cls,
        table: str,
        name: str,
        strings: Sequence[str],
        nominal_rows: Optional[int] = None,
    ) -> "Column":
        """Dictionary-encode ``strings`` (sorted dictionary, so code
        order preserves lexicographic order)."""
        dictionary = sorted(set(strings))
        code_of = {s: i for i, s in enumerate(dictionary)}
        codes = np.fromiter(
            (code_of[s] for s in strings), dtype=np.int32, count=len(strings)
        )
        column = cls(table, name, ColumnType.STRING, codes,
                     nominal_rows=nominal_rows, dictionary=dictionary)
        column._code_of = code_of
        return column

    def encode(self, string: str) -> int:
        """Dictionary code for ``string``.

        Unknown strings map to a code outside the value domain so
        equality predicates simply select nothing.
        """
        if self.dictionary is None:
            raise TypeError("{} is not a string column".format(self.key))
        code_of = self._code_of
        if code_of is None:
            code_of = {s: i for i, s in enumerate(self.dictionary)}
            self._code_of = code_of
        # Unknown strings map to -1: equality predicates select
        # nothing, inequality everything.  Range predicates on unknown
        # bounds go through encode_lower/upper_bound instead.
        return code_of.get(string, -1)

    def _bound(self, string: str, upper: bool) -> int:
        cache = self._bound_cache
        if cache is None:
            cache = self._bound_cache = {}
        key = (string, upper)
        index = cache.get(key)
        if index is None:
            if upper:
                index = bisect.bisect_right(self.dictionary, string) - 1
            else:
                index = bisect.bisect_left(self.dictionary, string)
            cache[key] = index
        return index

    def encode_lower_bound(self, string: str) -> int:
        """Smallest code whose string is >= ``string``."""
        if self.dictionary is None:
            raise TypeError("{} is not a string column".format(self.key))
        return self._bound(string, upper=False)

    def encode_upper_bound(self, string: str) -> int:
        """Largest code whose string is <= ``string`` (may be -1)."""
        if self.dictionary is None:
            raise TypeError("{} is not a string column".format(self.key))
        return self._bound(string, upper=True)

    def decode(self, codes: Union[int, np.ndarray]):
        """Map dictionary codes back to strings."""
        if self.dictionary is None:
            raise TypeError("{} is not a string column".format(self.key))
        if np.isscalar(codes):
            return self.dictionary[int(codes)]
        lookup = self._dict_array
        if lookup is None:
            lookup = np.asarray(self.dictionary, dtype=object)
            self._dict_array = lookup
        index = np.asarray(codes)
        if index.dtype.kind not in "iu":
            index = index.astype(np.intp)
        return list(lookup.take(index))

    # -- access ----------------------------------------------------------

    def gather(self, positions: np.ndarray) -> np.ndarray:
        """Values at the given row positions."""
        return self.values[positions]
