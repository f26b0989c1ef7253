"""Kernel-acceleration layer: cached join indexes and their probers.

The functional (numpy) kernels are pure computations over immutable
column arrays, so derived access structures can be built once per
database and reused across queries and runs — exactly how GPU engines
amortise their data-parallel primitives:

* **Cached join indexes** — the stable argsort order (and sorted view)
  of a join-key column.  ``HashJoin`` re-sorted the build column on
  every execution; with the index cached, probing is a pair of
  ``searchsorted`` calls.  Key columns that are dense ascending ranges
  (dimension primary keys) skip the search entirely and join by
  positional lookup; other unique keys probe an O(1) position table.
  The probers over these structures (bottom of this module) are what
  ``HashJoin.match`` — the one join kernel, whichever schedule calls
  it — probes through.
* **Column bounds** — the cached (min, max) of an integer column:
  they prove foreign-key containment (eliding the probers' range
  checks) and give the fused aggregation its group-id radixes.

Everything here is a pure acceleration: the produced tid sets are
byte-identical to the row-by-row expansion (probe order, then the
ascending-tid order of equal build keys), which
``tests/test_kernels.py::TestProbers`` keeps as the reference of every
prober; a build side no cached structure covers probes through
:func:`gathered_prober`.  The cache registers itself with :mod:`repro.engine.caches`, so
``compress_database`` and ``clear_database_caches`` invalidate it
alongside the plan cache.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.engine import caches

#: database -> KernelCache
_caches: "WeakKeyDictionary" = WeakKeyDictionary()

#: Event counters for benchmarks and tests.
stats = {
    "join_index_builds": 0,
    "join_index_hits": 0,
    "dense_joins": 0,
    "lookup_joins": 0,
    "sorted_joins": 0,
    "gathered_joins": 0,
    "masked_refines": 0,
    "masked_intersects": 0,
    "lookup_builds": 0,
    "lookup_hits": 0,
    "bounds_builds": 0,
}


def reset_stats() -> None:
    for key in stats:
        stats[key] = 0


def snapshot_stats() -> Dict[str, int]:
    return dict(stats)


class JoinIndex:
    """Reusable access structure over one join-key column.

    ``dense_base`` is set when the column is a dense ascending integer
    range (``base, base+1, ...``) — dimension primary keys — in which
    case matches are positional and no sort order is materialised.
    Otherwise ``order`` is the stable argsort of the column and
    ``sorted_values`` the column gathered through it.
    """

    __slots__ = ("order", "sorted_values", "dense_base")

    def __init__(self, order, sorted_values, dense_base):
        self.order = order
        self.sorted_values = sorted_values
        self.dense_base = dense_base


def _build_join_index(values: np.ndarray) -> JoinIndex:
    stats["join_index_builds"] += 1
    if len(values) and values.dtype.kind in "iu":
        base = int(values[0])
        if int(values[-1]) == base + len(values) - 1:
            expected = np.arange(base, base + len(values), dtype=values.dtype)
            if np.array_equal(values, expected):
                return JoinIndex(None, values, base)
    order = np.argsort(values, kind="stable")
    return JoinIndex(order, values[order], None)


#: A position lookup is only built when the key span is at most this
#: factor of the column length (plus slack for small tables): sparse
#: keys would waste memory for no probe-time gain over the sorted index.
_LOOKUP_SPAN_FACTOR = 4
_LOOKUP_SPAN_SLACK = 65536


class PositionLookup:
    """O(1) key→row-position table for a *unique* integer key column.

    ``table[key - base]`` is the row position of ``key`` (or -1), in
    the narrowest of int32/int64 that holds them — the table is the
    largest structure kept per database, and every probe gathers from
    it.  This is the probe structure for non-dense primary keys (e.g.
    ``d_datekey``): one gather instead of two ``searchsorted`` passes.
    Because every key is unique, the match expansion it implies is
    byte-identical to the sorted-index path.
    """

    __slots__ = ("base", "table", "n_rows")

    def __init__(self, base, table, n_rows):
        self.base = base
        self.table = table
        self.n_rows = n_rows


def _build_position_lookup(values: np.ndarray) -> Optional[PositionLookup]:
    n = len(values)
    if n == 0 or values.dtype.kind not in "iu":
        return None
    vmin = int(values.min())
    vmax = int(values.max())
    span = vmax - vmin + 1
    if span > _LOOKUP_SPAN_FACTOR * n + _LOOKUP_SPAN_SLACK:
        return None
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    table = np.full(span, -1, dtype=dtype)
    table[values.astype(np.int64) - vmin] = np.arange(n, dtype=dtype)
    if int(np.count_nonzero(table >= 0)) != n:
        return None  # duplicate keys collided
    stats["lookup_builds"] += 1
    return PositionLookup(vmin, table, n)


class KernelCache:
    """Per-database store of join indexes, position lookups and
    column bounds.

    All are keyed by column key and validated against the column's
    current array length, but the authoritative invalidation is
    explicit (:func:`invalidate` via the cache registry) — exactly like
    the plan cache.
    """

    def __init__(self):
        self._join_indexes: Dict[str, JoinIndex] = {}
        self._lookups: Dict[str, Tuple[int, Optional[PositionLookup]]] = {}
        self._bounds: Dict[str, Tuple[int, Tuple[int, int]]] = {}

    def join_index(self, column) -> JoinIndex:
        index = self._join_indexes.get(column.key)
        if index is not None and len(index.sorted_values) == len(column.values):
            stats["join_index_hits"] += 1
            return index
        index = _build_join_index(column.values)
        self._join_indexes[column.key] = index
        return index

    def position_lookup(self, column) -> Optional[PositionLookup]:
        """Unique-key position table for ``column``, or None when the
        column has duplicates, is non-integer, or spans too wide a key
        range.  A failed build is memoised so the scan runs once."""
        entry = self._lookups.get(column.key)
        n_col = len(column.values)
        if entry is not None and entry[0] == n_col:
            if entry[1] is not None:
                stats["lookup_hits"] += 1
            return entry[1]
        lookup = _build_position_lookup(column.values)
        self._lookups[column.key] = (n_col, lookup)
        return lookup

    def column_bounds(self, column) -> Optional[Tuple[int, int]]:
        """Cached (min, max) of an integer column — the morsel
        aggregator's group-id radix source.  None for empty or
        non-integer columns."""
        entry = self._bounds.get(column.key)
        n_col = len(column.values)
        if entry is not None and entry[0] == n_col:
            return entry[1]
        values = column.values
        if n_col == 0 or values.dtype.kind not in "iu":
            bounds = None
        else:
            stats["bounds_builds"] += 1
            bounds = (int(values.min()), int(values.max()))
        self._bounds[column.key] = (n_col, bounds)
        return bounds

    def clear(self) -> None:
        self._join_indexes.clear()
        self._lookups.clear()
        self._bounds.clear()

    def __len__(self) -> int:
        return (
            len(self._join_indexes)
            + len(self._lookups)
            + len(self._bounds)
        )


def cache_for(database) -> KernelCache:
    """The database's kernel cache (created on first use)."""
    cache = _caches.get(database)
    if cache is None:
        cache = KernelCache()
        _caches[database] = cache
    return cache


def invalidate(database=None) -> None:
    """Drop cached kernels — all of them, or one database's."""
    if database is None:
        _caches.clear()
    else:
        _caches.pop(database, None)


def cache_size(database=None) -> int:
    """Number of cached kernel structures (one or all databases)."""
    if database is not None:
        cache = _caches.get(database)
        return len(cache) if cache is not None else 0
    return sum(len(cache) for cache in _caches.values())


# ---------------------------------------------------------------------------
# Join probers: one per cached access structure, all returning the
# row-by-row expansion's matches in its order (``probe(values)`` →
# probe-side indexes, build-side positions).
# A gather keyed by a stored (int32) column goes through ``ndarray.take``:
# ``array[keys]`` casts a non-intp index in numpy's buffered iterator
# (~3x slower), and ``take``'s default ``mode="raise"`` keeps the same
# bounds check and negative-index rule without an int64 copy of the keys.
# ---------------------------------------------------------------------------

def _empty_match():
    empty = np.empty(0, dtype=np.int64)
    return empty, empty


def _as_int64(array: np.ndarray) -> np.ndarray:
    return array.astype(np.int64, copy=False)


class _DenseProber:
    """Positional probe against a dense ascending key column.

    ``checked`` is False when the cached probe-column bounds prove every
    foreign key lands inside the build key range (referential
    integrity), eliding the range test.  In that case a filtered build
    probes through ``key_mask`` — the selection mask pre-shifted to raw
    key space — so the hot path is one gather plus one ``flatnonzero``;
    the base is subtracted only from the surviving rows.
    """

    __slots__ = ("base", "n_col", "mask", "key_mask", "checked")

    def __init__(self, base: int, n_col: int, mask, checked: bool):
        self.base = base
        self.n_col = n_col
        self.mask = mask
        self.checked = checked
        self.key_mask = None
        if (not checked and mask is not None
                and 0 <= base <= n_col + _LOOKUP_SPAN_SLACK):
            key_mask = np.zeros(base + n_col, dtype=bool)
            key_mask[base:] = mask
            self.key_mask = key_mask

    def probe(self, fk: np.ndarray):
        stats["dense_joins"] += 1
        if self.checked:
            # int64: an unproven key may not fit the base's distance
            pos = fk.astype(np.int64) - self.base
            hit = (pos >= 0) & (pos < self.n_col)
            if self.mask is not None:
                hit &= self.mask[np.where(hit, pos, 0)]
            return np.flatnonzero(hit), pos[hit]
        if self.key_mask is not None:
            probe_idx = np.flatnonzero(self.key_mask.take(fk))
            build_tids = fk[probe_idx].astype(np.int64)
            build_tids -= self.base
            return probe_idx, build_tids
        if self.mask is not None:  # large/offset base: no key_mask
            pos = fk - self.base  # key dtype: contained keys fit it
            hit = self.mask.take(pos)
            return np.flatnonzero(hit), _as_int64(pos[hit])
        # Unfiltered dense build with containment: every row hits.
        pos = fk.astype(np.int64)
        pos -= self.base
        return np.arange(len(fk), dtype=np.int64), pos


class _LookupProber:
    """O(1) probe through a unique-key position table.

    A filtered build folds its selection mask into a *copy* of the
    table when the prober is made (unselected keys map to -1) — an
    unfiltered one shares the cached table — so a probe is one gather
    and one sign test.  Unique keys mean at most one match per probe
    row: same outputs as the sorted-index path.
    """

    __slots__ = ("base", "span", "table", "checked")

    def __init__(self, lookup: PositionLookup, mask, checked: bool):
        self.base = lookup.base
        self.span = len(lookup.table)
        table = lookup.table
        if mask is not None:
            selected = mask.take(np.maximum(table, 0)) & (table >= 0)
            table = np.where(selected, table, table.dtype.type(-1))
        self.table = table
        self.checked = checked

    def probe(self, fk: np.ndarray):
        stats["lookup_joins"] += 1
        if self.checked:
            rel = fk.astype(np.int64) - self.base
            in_span = (rel >= 0) & (rel < self.span)
            pos = self.table[np.where(in_span, rel, 0)]
            hit = in_span & (pos >= 0)
        else:
            pos = self.table.take(fk - self.base)
            hit = pos >= 0
        return np.flatnonzero(hit), _as_int64(pos[hit])


class _SortedProber:
    """General probe through a stable sort order: the engine's one
    1:N match expansion.  ``counter`` names the statistic a probe
    moves — the cached index of a base column, or an index
    :func:`gathered_prober` sorted for one join."""

    __slots__ = ("order", "sorted_values", "mask", "counter")

    def __init__(self, index: JoinIndex, mask, counter: str = "sorted_joins"):
        self.order = index.order
        self.sorted_values = index.sorted_values
        self.mask = mask
        self.counter = counter

    def probe(self, fk: np.ndarray):
        stats[self.counter] += 1
        lo = np.searchsorted(self.sorted_values, fk, side="left")
        hi = np.searchsorted(self.sorted_values, fk, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return _empty_match()
        probe_idx = np.repeat(np.arange(len(fk), dtype=np.int64), counts)
        starts = np.repeat(lo, counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        build_tids = self.order[starts + offsets]
        if self.mask is None:
            return probe_idx, build_tids
        # Restricting the full-column stable order to the selected rows
        # preserves the general expansion's ordering: selection tids
        # ascend, so the stable sort of the gathered values lists equal
        # keys in the same order.
        keep = self.mask[build_tids]
        return probe_idx[keep], build_tids[keep]


def gathered_prober(build_values: np.ndarray) -> _SortedProber:
    """The prober for a build side no cached structure covers — a join
    result, several aligned tables, a selection older than its column:
    a stable sort of the *gathered* build keys, made for this one join.
    ``probe`` returns positions in ``build_values``; the caller
    (``HashJoin.run``, the only one) maps them back through the build
    side's tids."""
    order = np.argsort(build_values, kind="stable")
    return _SortedProber(JoinIndex(order, build_values[order], None), None,
                         "gathered_joins")


def prober_for(cache: KernelCache, build_column, build_selection,
               probe_column):
    """The prober for an equi-join into ``build_column``.

    ``build_selection`` is the build side's
    :class:`~repro.engine.intermediates.SelectionVector` over the
    column's table; the values later handed to ``probe`` are (any
    gather of) ``probe_column``'s, so its cached bounds can prove
    containment.  ``probe(values)`` returns ``(probe_idx, build_tids)``
    — probe-side match indexes and *base-table* row positions of the
    matched build rows.  None when no cached structure applies: the
    selection predates the column's current length, or a non-integer
    key probes a dense range (which keeps no sort order).
    """
    n_col = len(build_column.values)
    if build_selection.n != n_col:
        return None
    mask = None if build_selection.is_all else build_selection.mask
    index = cache.join_index(build_column)
    if probe_column.values.dtype.kind not in "iu":
        if index.dense_base is not None:
            return None
        return _SortedProber(index, mask)
    bounds = cache.column_bounds(probe_column)

    def unproven(base: int, span: int) -> bool:
        return not (bounds is not None and bounds[0] >= base
                    and bounds[1] < base + span)

    if index.dense_base is not None:
        return _DenseProber(index.dense_base, n_col, mask,
                            unproven(index.dense_base, n_col))
    lookup = cache.position_lookup(build_column)
    if lookup is not None:
        return _LookupProber(lookup, mask,
                             unproven(lookup.base, len(lookup.table)))
    return _SortedProber(index, mask)


caches.register("kernels", invalidate, cache_size)
