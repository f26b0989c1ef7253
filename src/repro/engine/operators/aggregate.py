"""Group-by aggregation."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.engine import kernels
from repro.engine.expressions import Aggregate, ColumnRef
from repro.engine.frame import BlockFrame, Frame
from repro.engine.intermediates import OperatorResult, ResultFrame, TidSet
from repro.engine.operators.base import (
    ChunkPartial,
    OpEstimate,
    PhysicalOperator,
    TID_BYTES,
)
from repro.storage import ColumnType, Database

#: Dense group-id domains above this find their groups by sorting
#: instead.  Nothing of this size is ever allocated (partials and their
#: merge are sparse): the cap keeps the mixed-radix ids far inside
#: int64, and it decides which aggregates a pool can merge — so its
#: value is part of the pinned statistics.
GROUP_DOMAIN_CAP = 1 << 21


class _GroupTerm:
    """One group column's digit of the mixed-radix dense group id."""

    __slots__ = ("ref", "low", "radix", "stride")

    def __init__(self, ref, low, radix):
        self.ref = ref
        self.low = low
        self.radix = radix
        self.stride = 1  # filled once all radixes are known


class _DenseAggregate:
    """Mixed-radix dense-id plan of one bound :class:`GroupByAggregate`."""

    __slots__ = ("terms", "compensated")

    def __init__(self, terms, compensated):
        self.terms = terms
        #: aliases of the float sum/avg aggregates, whose partials merge
        #: with Neumaier compensation (pool path); identity with the
        #: one-pass reference is gated at runtime
        self.compensated = compensated


class AggregatePartial(ChunkPartial):
    """Sparse partial aggregate: the ``present`` groups (ascending
    dense ids — or, unbound, the sorted group keys themselves), their
    row ``counts``, per-aggregate sums / extrema by alias, and whether
    each aggregate's input was ``integer``."""

    __slots__ = ("present", "counts", "values", "integer")

    def __init__(self, present, counts, values, integer=None):
        super().__init__()
        self.present = present
        self.counts = counts
        self.values = values
        self.integer = integer or {}


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
        #: the dense-id plan of the last :meth:`bind` (None: unbound,
        #: or the group columns have no small integer domain)
        self.dense: Optional[_DenseAggregate] = None

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

    # -- the partial algebra: partial / merge / finish --------------------

    def bind(self, database: Database, tables: Sequence[str]) -> None:
        """Plan ``self.dense`` — mixed-radix group ids over the cached
        bounds of the group columns — for an input reaching ``tables``,
        or leave it None: groups are then found by sorting the group
        columns, and partials of different chunks cannot merge.

        Ascending dense ids enumerate the groups in exactly
        ``np.unique``'s lexicographic order, so both ways of finding
        them finish to the same frame."""
        self.dense = None
        cache = kernels.cache_for(database)
        terms: List[_GroupTerm] = []
        domain = 1
        for ref in self.group_refs:
            if ref.table not in tables:
                return
            column = database.column(ref.key)
            bounds = cache.column_bounds(column)
            if bounds is None:
                return
            low, high = bounds
            radix = high - low + 1
            domain *= radix
            if domain > GROUP_DOMAIN_CAP:
                return
            terms.append(_GroupTerm(ref, low, radix))
        stride = 1
        for term in reversed(terms):
            term.stride = stride
            stride *= term.radix

        # Evaluating an aggregate's input over zero rows reproduces
        # numpy's promotion without interpreting expression trees.
        empty = BlockFrame(database)
        compensated: List[str] = []
        for aggregate in self.aggregates:
            if aggregate.func == "count":
                continue
            try:
                kind = np.asarray(aggregate.expr.evaluate(empty)).dtype.kind
            except Exception:
                return
            if aggregate.func in ("sum", "avg") and kind not in "iu":
                if kind != "f":
                    return
                # Float partial sums can reorder rounding across chunks;
                # merge them with Neumaier compensation and let the pool's
                # byte-identity gate decline queries where it still shows.
                compensated.append(aggregate.alias)
            elif kind not in "iufb":
                return
        self.dense = _DenseAggregate(terms, compensated)

    @property
    def supports_partials(self) -> bool:
        """True when chunk partials merge: :meth:`bind` found dense ids."""
        return self.dense is not None

    @property
    def compensated_terms(self) -> int:
        """How many aggregates merge float partials with Neumaier
        compensation — their pooled results need a byte-identity gate."""
        return 0 if self.dense is None else len(self.dense.compensated)

    def partial(self, frame, n_rows: int) -> "AggregatePartial":
        """Chunk kernel: the groups present among ``frame``'s
        ``n_rows`` rows (ascending), their row counts and each
        aggregate's per-group reduction.  A chunk is a morsel in the
        pool and the whole input for ``run()``; nothing of the dense
        domain's size is ever allocated."""
        if not self.group_refs:
            # the one group of an ungrouped aggregate exists even over
            # zero rows (and needs no sort to find)
            present = np.zeros(1, dtype=np.int64)
            inverse = np.zeros(n_rows, dtype=np.int64)
        elif self.dense is not None:
            ids = np.zeros(n_rows, dtype=np.int64)
            for term in self.dense.terms:
                values = np.asarray(term.ref.evaluate(frame))
                ids += (values.astype(np.int64) - term.low) * term.stride
            present, inverse = np.unique(ids, return_inverse=True)
        else:
            keys = [np.asarray(ref.evaluate(frame)) for ref in self.group_refs]
            # a single key skips the row-matrix stack: the 1-D unique
            # yields the same sorted groups and inverse
            present, inverse = (
                np.unique(keys[0], return_inverse=True) if len(keys) == 1
                else np.unique(np.stack(keys, axis=1), axis=0,
                               return_inverse=True))
        counts = np.bincount(inverse, minlength=len(present))
        values_out: Dict[str, np.ndarray] = {}
        integer: Dict[str, bool] = {}
        for aggregate in self.aggregates:
            reduced, integer[aggregate.alias] = reduce_groups(
                aggregate, frame, inverse, len(present))
            if reduced is not None:
                values_out[aggregate.alias] = reduced
        return AggregatePartial(present, counts, values_out, integer)

    def merge(self, partials: List["AggregatePartial"]) -> "AggregatePartial":
        """One partial from many, merged where the groups are:
        ``union`` is the sorted set of group ids present in any partial
        and each partial scatters into it through ``searchsorted`` — no
        array of the dense domain's size exists, and what is buffered is
        bounded by the rows behind it (every present id stands for at
        least one).  Partials merge in the order given: integer sums
        are exact in float64 and extrema commute, compensated float
        sums keep that order."""
        if self.group_refs:
            union = np.unique(np.concatenate(
                [np.empty(0, dtype=np.int64)]
                + [partial.present for partial in partials]))
        else:  # the one group exists even over zero rows
            union = np.arange(1)
        n_groups = len(union)
        counts = np.zeros(n_groups, dtype=np.int64)
        values: Dict[str, np.ndarray] = {}
        # Neumaier compensation terms for float sum/avg aliases
        comps = {alias: np.zeros(n_groups)
                 for alias in self.dense.compensated}
        reduced = [(aggregate.func, aggregate.alias)
                   for aggregate in self.aggregates
                   if aggregate.func != "count"]
        for func, alias in reduced:
            values[alias] = (
                np.zeros(n_groups) if func in ("sum", "avg") else
                np.full(n_groups, np.inf if func == "min" else -np.inf))
        for partial in partials:
            present = np.searchsorted(union, partial.present)
            counts[present] += partial.counts
            for func, alias in reduced:
                shipped, target = partial.values[alias], values[alias]
                if alias in comps:
                    # Neumaier: accumulate the rounding error of every
                    # merge so it can be added back in one step.
                    old = target[present]
                    merged = old + shipped
                    lost = np.where(
                        np.abs(old) >= np.abs(shipped),
                        (old - merged) + shipped,
                        (shipped - merged) + old,
                    )
                    comps[alias][present] += lost
                    target[present] = merged
                elif func in ("sum", "avg"):
                    target[present] += shipped
                elif func == "min":
                    target[present] = np.minimum(target[present], shipped)
                else:
                    target[present] = np.maximum(target[present], shipped)
        for alias, comp in comps.items():
            # Collapse the compensation into the shipped value; a
            # parent re-compensates its own merges.
            values[alias] = values[alias] + comp
        integer = partials[0].integer if partials else {}
        return AggregatePartial(union, counts, values, integer)

    def finish(self, database: Database, partial: "AggregatePartial",
               child_nominal: int) -> OperatorResult:
        """The result frame of one partial — a chunk's, or a merge's:
        group columns decoded from the present dense ids (or read off
        the sorted keys), aggregate columns by :func:`finish_aggregate`.
        String group columns keep their dictionary so they decode.
        (``child_nominal`` is the breakers' shared signature: groups do
        not scale with the input, so the actual count is the nominal.)"""
        present = partial.present
        columns: Dict[str, np.ndarray] = {}
        dictionaries: Dict[str, list] = {}
        for position, ref in enumerate(self.group_refs):
            if self.dense is not None:
                term = self.dense.terms[position]
                codes = term.low + (present // term.stride) % term.radix
            else:
                codes = present if present.ndim == 1 else present[:, position]
            meta = database.column(ref.key)
            columns[ref.name] = codes.astype(meta.values.dtype)
            if meta.ctype is ColumnType.STRING:
                dictionaries[ref.name] = meta.dictionary
        for aggregate in self.aggregates:
            columns[aggregate.alias] = finish_aggregate(
                aggregate.func, partial.counts,
                partial.values.get(aggregate.alias),
                partial.integer[aggregate.alias],
            )
        frame_out = ResultFrame(columns, dictionaries)
        return OperatorResult(
            frame_out,
            actual_rows=len(frame_out),
            nominal_rows=len(frame_out),
            row_width_bytes=frame_out.width_bytes,
        )

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        (child,) = child_results
        payload = child.payload
        if not isinstance(payload, TidSet):
            raise TypeError("GroupByAggregate expects a TidSet input")
        self.bind(database, payload.table_names)
        frame = Frame(database, payload.tables)
        return self.finish(database, self.partial(frame, len(payload)),
                           child.nominal_rows)


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
    """The result rules of one aggregate column: counts and integer
    sums are int64 (sums rounded from their float64
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
