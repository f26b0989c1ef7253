"""Fused morsel-driven execution: the functional layer's default path.

The simulator charges every operator its own materialised intermediate
(CoGaDB is operator-at-a-time, paper Sec. 2.5), but the *host* work
behind those intermediates does not have to run that way.  This module
fuses the hot mid-query chain — ``ScanSelect`` → ``RefineSelect``* →
``HashJoin``* → (``GroupByAggregate`` | ``Materialize``) — into a
single per-morsel pipeline over cache-sized row ranges of the fact
table:

* the scan predicate is evaluated per morsel over column *slices*
  (elementwise, so restriction commutes with evaluation),
* join probes run through the kernel layer's probers
  (:func:`repro.engine.kernels.prober_for`: dense positional,
  unique-key position lookup, or the stable sorted index), entirely on
  dictionary codes; cached probe-column bounds prove foreign-key
  containment and elide the range checks,
* grouped aggregates reduce through a mixed-radix *dense group id*
  (radixes from cached column bounds) into sparse partials — present
  group ids, their row counts, per-aggregate reductions.  Pool workers
  ship one per chunk and the breaker merges them in the space of the
  group ids that occur (never over the dense domain); the sequential
  path reduces the fused chain's output to a single partial — either
  way skipping the operator path's multi-column ``np.unique`` sort.

Everything is byte-identical to the operator path.  The proofs are
local: elementwise predicates commute with slicing; restricting the
stable join order to an ascending morsel and concatenating preserves
the full-run match order; ascending dense group ids enumerate groups in
exactly ``np.unique``'s lexicographic order; and integer sums are exact
in float64, so partial merging cannot reorder rounding (float
``sum``/``avg`` partials merge compensated and are gated at runtime).

Sequential execution is *recording*: a fused run fills the
per-template result memo (and the cross-plan cache) of every covered
operator with the identical ``(payload, actual, nominal, width)``
tuples the operator path would produce, then
:func:`~repro.engine.execution.functional.execute_operators`' ordinary
post-order loop serves them — tail operators
(Sort/Limit/Distinct/FrameFilter) and all bookkeeping run unchanged.
When a plan shape falls outside the fused form the pipeline declines
(reason-counted in :data:`decline_reasons`) and the plan runs operator
by operator; when only the dense aggregation is ineligible the
scan/join chain still fuses and the breaker runs once at a barrier.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine import kernels, plan_cache
from repro.engine.expressions import ColumnRef
from repro.engine.frame import BlockFrame, Frame
from repro.engine.intermediates import (
    OperatorResult,
    ResultFrame,
    SelectionVector,
    TidSet,
)
from repro.engine.operators.aggregate import finish_aggregate, reduce_groups
from repro.storage.types import ColumnType

#: Rows per morsel: roughly the L2-sized ranges morsel-driven schedulers
#: hand out.
DEFAULT_MORSEL_ROWS = 65536

#: Dense group-id domains above this decline to the barrier aggregate.
#: Nothing of this size is ever allocated (partials and their merge are
#: sparse): the cap keeps the mixed-radix ids far inside int64, and it
#: decides which aggregates count under ``barrier_breakers`` — so its
#: value is part of the pinned statistics.
GROUP_DOMAIN_CAP = 1 << 21

_morsel_rows_override: Optional[int] = None

#: Event counters for metrics, benchmarks, and tests.
stats = {
    "fused_queries": 0,
    "declined_queries": 0,
    "morsels": 0,
    "fused_operators": 0,
    "partial_merges": 0,
    "dense_aggregates": 0,
    "barrier_breakers": 0,
    "compensated_merges": 0,
    "limit_fused_queries": 0,
    "limit_early_stops": 0,
    "limit_rows_skipped": 0,
}

#: Why fusion declined, by reason (diagnostics; reset with the stats).
decline_reasons: Counter = Counter()


def reset_stats() -> None:
    for key in stats:
        stats[key] = 0
    decline_reasons.clear()


def snapshot_stats() -> Dict[str, int]:
    return dict(stats)


def stats_since(before: Dict[str, int]) -> Dict[str, int]:
    """Counter movement since a :func:`snapshot_stats` — what ``repro
    run`` and the report print around one workload."""
    return {key: value - before[key] for key, value in stats.items()}


def morsel_rows() -> int:
    """Effective morsel size: the test override, else 64K."""
    if _morsel_rows_override is not None:
        return _morsel_rows_override
    return DEFAULT_MORSEL_ROWS


def set_morsel_rows(rows: Optional[int]) -> None:
    """Override the morsel size (None restores the default).  Results
    do not depend on it; tests sweep it to prove that."""
    global _morsel_rows_override
    if rows is not None and int(rows) < 1:
        raise ValueError("morsel_rows must be >= 1")
    _morsel_rows_override = None if rows is None else int(rows)


@contextmanager
def sized(rows: Optional[int]):
    """Run a block at ``rows`` per morsel, then restore the size."""
    previous = _morsel_rows_override
    set_morsel_rows(rows)
    try:
        yield
    finally:
        set_morsel_rows(previous)


class Decline(Exception):
    """Raised internally when a plan cannot run on the fused path."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Stage:
    """One fused join: probe key lineage plus the build-side prober."""

    __slots__ = ("op", "probe_table", "probe_values", "build_table",
                 "prober", "table_order")

    def __init__(self, op, probe_table, build_table, table_order):
        self.op = op
        self.probe_table = probe_table
        self.probe_values = None
        self.build_table = build_table
        self.prober = None
        self.table_order = table_order


class _GroupTerm:
    __slots__ = ("ref", "low", "radix", "stride", "dtype", "dictionary")

    def __init__(self, ref, low, radix, dtype, dictionary):
        self.ref = ref
        self.low = low
        self.radix = radix
        self.stride = 1  # filled once all radixes are known
        self.dtype = dtype
        self.dictionary = dictionary


class _AggTerm:
    __slots__ = ("aggregate", "is_integer", "compensated")

    def __init__(self, aggregate, is_integer, compensated=False):
        self.aggregate = aggregate
        self.is_integer = is_integer
        #: float sum/avg merged with Neumaier compensation (pool path);
        #: identity with the one-pass reference is gated at runtime
        self.compensated = compensated


class _DenseAggregate:
    """Mixed-radix dense-id plan for a GroupByAggregate breaker."""

    __slots__ = ("terms", "aggs", "domain", "grouped")

    def __init__(self, terms, aggs, domain, grouped):
        self.terms = terms
        self.aggs = aggs
        self.domain = domain
        self.grouped = grouped


class MorselPartial:
    """Picklable per-morsel result shipped from pool workers.

    ``kind`` is ``"agg"`` (sparse partial aggregates: present group
    ids, their row counts, and per-aggregate sums / extrema),
    ``"frame"`` (materialised column chunks), or ``"none"`` (recording
    runs carry their state in the sink instead).
    """

    __slots__ = ("index", "kind", "present", "counts", "values", "frame",
                 "chain_counts")

    def __init__(self, index, kind, present=None, counts=None, values=None,
                 frame=None, chain_counts=None):
        self.index = index
        self.kind = kind
        self.present = present
        self.counts = counts
        self.values = values
        self.frame = frame
        #: output row count per chain operator (scan, refines, joins) —
        #: summed across partials to replay the nominal-row arithmetic
        self.chain_counts = chain_counts


class _Accumulator:
    """The partials of one pooled execution, buffered in absorb order
    until :meth:`FusedPipeline._pack_chunk` merges them."""

    __slots__ = ("kind", "chunks")

    def __init__(self, kind):
        self.kind = kind
        self.chunks: List[MorselPartial] = []


class FusedPipeline:
    """A plan's fused form, bound to one database.

    Build with :func:`build`.  Two consumption styles:

    * *recording* (sequential): :meth:`run_recorded` executes every
      morsel, then fills the covered operators' memos with
      byte-identical result tuples.
    * *pooled*: :meth:`run_morsel` with ``collect=True`` returns a
      small picklable :class:`MorselPartial` per range; the scheduling
      side merges them with :meth:`absorb` / :meth:`finalize` and
      applies :meth:`run_tail`.
    """

    def __init__(self, plan, database):
        self.plan = plan
        self.database = database
        self.fact_table: str = ""
        self.fact_rows: int = 0
        self.scan_op = None
        self.fact_predicate = None
        self.refines: List = []
        self.stages: List[_Stage] = []
        self.breaker = None
        self.breaker_kind: str = ""  # "agg" | "frame"
        self.dense: Optional[_DenseAggregate] = None
        self.tail: List = []  # breaker → root, in execution order
        self.covered_ops: List = []

    # -- capability queries -------------------------------------------

    @property
    def supports_partials(self) -> bool:
        """True when morsels reduce to small partials a pool can ship
        (dense aggregation or plain materialisation)."""
        return self.breaker_kind == "frame" or self.dense is not None

    @property
    def compensated(self) -> bool:
        """True when any aggregate merges float partials with Neumaier
        compensation — pooled results then need the byte-identity gate."""
        return (self.dense is not None
                and any(term.compensated for term in self.dense.aggs))

    def ranges(self) -> List[Tuple[int, int]]:
        rows = self.fact_rows
        if rows == 0:
            return [(0, 0)]
        size = morsel_rows()
        return [(start, min(start + size, rows))
                for start in range(0, rows, size)]

    # -- per-morsel execution -----------------------------------------

    def run_morsel(self, start: int, stop: int, index: int = 0,
                   sink: Optional[Dict[int, list]] = None,
                   collect: bool = False) -> MorselPartial:
        """Run the fused chain over fact rows ``[start, stop)``.

        With ``sink`` (op_id → chunk list), records the per-operator
        intermediate chunks the unfused path would have produced.  With
        ``collect``, reduces the breaker over the morsel and returns
        the partial result.
        """
        stats["morsels"] += 1
        database = self.database
        block = BlockFrame(database)
        block.set_range(start, stop)

        chain_counts: Optional[List[int]] = [] if collect else None

        # Scan + refines: cumulative mask over the morsel's rows.
        fact_tids: Optional[np.ndarray] = None  # None = all of [start, stop)
        if self.fact_predicate is not None or self.refines:
            if self.fact_predicate is not None:
                cum = np.asarray(self.fact_predicate.evaluate(block),
                                 dtype=bool)
                if sink is not None:
                    sink[self.scan_op.op_id].append(cum)
                if chain_counts is not None:
                    chain_counts.append(int(np.count_nonzero(cum)))
            else:
                cum = np.ones(stop - start, dtype=bool)
                if chain_counts is not None:
                    chain_counts.append(stop - start)
            for refine in self.refines:
                cum = cum & np.asarray(refine.predicate.evaluate(block),
                                       dtype=bool)
                if sink is not None:
                    sink[refine.op_id].append(cum)
                if chain_counts is not None:
                    chain_counts.append(int(np.count_nonzero(cum)))
            fact_tids = start + np.flatnonzero(cum)
        elif chain_counts is not None:
            chain_counts.append(stop - start)

        # Join chain: keep aligned absolute tids per reachable table.
        current: Dict[str, Optional[np.ndarray]] = {self.fact_table: fact_tids}
        for stage in self.stages:
            probe_tids = current[stage.probe_table]
            if probe_tids is None:
                fk = stage.probe_values[start:stop]
            else:
                fk = stage.probe_values[probe_tids]
            probe_idx, build_tids = stage.prober.probe(fk)
            advanced: Dict[str, np.ndarray] = {}
            for name, tids in current.items():
                if tids is None:
                    advanced[name] = start + probe_idx
                else:
                    advanced[name] = tids[probe_idx]
            advanced[stage.build_table] = build_tids
            current = advanced
            if sink is not None:
                sink[stage.op.op_id].append(advanced)
            if chain_counts is not None:
                chain_counts.append(len(probe_idx))

        if not collect:
            return MorselPartial(index, "none")
        chain = tuple(chain_counts)

        # Breaker input frame.
        only_fact = len(current) == 1 and current[self.fact_table] is None
        if only_fact:
            frame = block
            n_rows = stop - start
        else:
            positions = {
                name: (np.arange(start, stop, dtype=np.int64)
                       if tids is None else tids)
                for name, tids in current.items()
            }
            frame = Frame(database, positions)
            first = next(iter(current.values()))
            n_rows = (stop - start) if first is None else len(first)

        if self.breaker_kind == "frame":
            partial = self._materialize_partial(index, frame)
        else:
            partial = self._aggregate_partial(index, frame, n_rows)
        partial.chain_counts = chain
        return partial

    def _materialize_partial(self, index, frame) -> MorselPartial:
        projected = self.breaker.project(
            self.database,
            lambda alias, expr: np.asarray(expr.evaluate(frame)),
        )
        return MorselPartial(index, "frame", frame=projected.columns)

    def _group_ids(self, frame, n_rows: int) -> np.ndarray:
        ids = np.zeros(n_rows, dtype=np.int64)
        for term in self.dense.terms:
            values = np.asarray(term.ref.evaluate(frame))
            ids += (values.astype(np.int64) - term.low) * term.stride
        return ids

    def _aggregate_partial(self, index, frame, n_rows) -> MorselPartial:
        """Sparse partial over ``frame``'s rows: group ids compressed
        through a local ``np.unique`` (a morsel of rows in the pool, the
        fused chain's whole output at the sequential breaker), never
        touching the full dense domain."""
        ids = self._group_ids(frame, n_rows)
        if self.dense.grouped:
            present, inverse = np.unique(ids, return_inverse=True)
        else:
            # the one group of an ungrouped aggregate exists even over
            # zero rows (and needs no sort to find)
            present, inverse = np.zeros(1, dtype=np.int64), ids
        n_local = len(present)
        counts = np.bincount(inverse, minlength=n_local)
        values_out: Dict[str, np.ndarray] = {}
        for term in self.dense.aggs:
            reduced, _ = reduce_groups(term.aggregate, frame, inverse,
                                       n_local)
            if reduced is not None:
                values_out[term.aggregate.alias] = reduced
        return MorselPartial(index, "agg", present=present, counts=counts,
                             values=values_out)

    # -- merging (pooled) ---------------------------------------------

    def new_accumulator(self) -> _Accumulator:
        if not self.supports_partials:
            raise Decline("no_partials")
        return _Accumulator(self.breaker_kind)

    def absorb(self, acc: _Accumulator, partial: MorselPartial) -> None:
        """Buffer one morsel partial for :meth:`_pack_chunk`, which
        merges aggregate partials in absorb order (integer sums are
        exact and extrema commute; compensated float sums keep the
        order) and frame chunks by morsel index."""
        if partial.kind == "none":
            return
        stats["partial_merges"] += 1
        acc.chunks.append(partial)

    def _absorb_all(self, partials):
        """Absorb ``partials`` (consumed in order, so a generator may
        stop early); returns (accumulator, summed chain counts)."""
        acc = self.new_accumulator()
        totals: Optional[Tuple[int, ...]] = None
        for partial in partials:
            self.absorb(acc, partial)
            totals = (partial.chain_counts if totals is None else
                      tuple(a + b for a, b in
                            zip(totals, partial.chain_counts)))
        return acc, totals

    def merge(self, partials) -> OperatorResult:
        """Root result from chunk or morsel partials: absorb, replay
        the nominal-row arithmetic, finalise the breaker, run the tail
        — the one merge the morsel pool, the split identity gate and
        the fused ``Limit`` path share."""
        acc, totals = self._absorb_all(partials)
        _, prev_nominal = self.replay_nominal(totals)
        return self.run_tail(self.finalize(acc, prev_nominal))

    # -- finalisation --------------------------------------------------

    def finalize(self, acc: _Accumulator,
                 prev_nominal: int) -> OperatorResult:
        """Breaker result from merged partials (pooled executions)."""
        partial = self._pack_chunk(0, acc, None)
        if acc.kind == "agg":
            return self._finalize_aggregate(partial)
        frame_out = self.breaker.project(
            self.database, lambda alias, expr: partial.frame[alias]
        )
        return OperatorResult(
            frame_out,
            actual_rows=len(frame_out),
            nominal_rows=prev_nominal,
            row_width_bytes=frame_out.width_bytes,
        )

    def _finalize_aggregate(self, partial: MorselPartial) -> OperatorResult:
        """Breaker frame from one sparse partial — a merged
        accumulator's (:meth:`_pack_chunk`) or the sequential path's
        single pass: group columns decoded from the present dense ids,
        aggregate columns by ``GroupByAggregate``'s own result rules."""
        stats["dense_aggregates"] += 1
        present = partial.present
        columns: Dict[str, np.ndarray] = {}
        dictionaries: Dict[str, list] = {}
        for term in self.dense.terms:
            codes = term.low + (present // term.stride) % term.radix
            columns[term.ref.name] = codes.astype(term.dtype)
            if term.dictionary is not None:
                dictionaries[term.ref.name] = term.dictionary
        for term in self.dense.aggs:
            alias = term.aggregate.alias
            columns[alias] = finish_aggregate(
                term.aggregate.func, partial.counts,
                partial.values.get(alias), term.is_integer,
            )
        frame_out = ResultFrame(columns, dictionaries)
        return OperatorResult(
            frame_out,
            actual_rows=len(frame_out),
            nominal_rows=len(frame_out),
            row_width_bytes=frame_out.width_bytes,
        )

    def run_tail(self, result: OperatorResult) -> OperatorResult:
        """Apply the tail operators (Sort/Limit/...) above the breaker."""
        for op in self.tail:
            result = op.run(self.database, [result])
        return result

    # -- chunked execution (worker side of the morsel pool) ------------

    def run_chunk(self, start: int, stop: int,
                  progress=None) -> MorselPartial:
        """Run every morsel of fact rows ``[start, stop)`` and merge
        them locally into ONE picklable partial — the pool ships a
        single message per worker chunk instead of one per morsel.

        ``progress`` (no-arg callable) fires after each morsel; pool
        workers heartbeat through it so the parent's watchdog can tell
        a slow chunk from a hung process.
        """
        size = morsel_rows()
        spans = ([(start, stop)] if start == stop
                 else [(pos, min(pos + size, stop))
                       for pos in range(start, stop, size)])

        def morsels():
            for span_start, span_stop in spans:
                yield self.run_morsel(span_start, span_stop,
                                      index=span_start, collect=True)
                if progress is not None:
                    progress()

        acc, totals = self._absorb_all(morsels())
        return self._pack_chunk(start, acc, totals)

    def _pack_chunk(self, index: int, acc: _Accumulator,
                    totals: Optional[Tuple[int, ...]]) -> MorselPartial:
        """One accumulator as one partial: what a worker ships per
        chunk, and the form :meth:`finalize` finishes from.

        Aggregate partials merge where the groups are: ``union`` is the
        sorted set of group ids present in any partial and each partial
        scatters into it through ``searchsorted`` — no array of the
        dense domain's size exists, and what is buffered is bounded by
        the rows behind it (every present id stands for at least one)."""
        if acc.kind == "frame":
            chunks = sorted(acc.chunks, key=lambda partial: partial.index)
            merged = self.breaker.project(
                self.database,
                lambda alias, expr: np.concatenate(
                    [chunk.frame[alias] for chunk in chunks]
                ),
            )
            return MorselPartial(index, "frame", frame=merged.columns,
                                 chain_counts=totals)
        if self.dense.grouped:
            union = np.unique(np.concatenate(
                [np.empty(0, dtype=np.int64)]
                + [partial.present for partial in acc.chunks]))
        else:  # the one group exists even over zero rows
            union = np.arange(1)
        n_groups = len(union)
        counts = np.zeros(n_groups, dtype=np.int64)
        values: Dict[str, np.ndarray] = {}
        # Neumaier compensation terms for float sum/avg aliases
        comps: Dict[str, np.ndarray] = {}
        for term in self.dense.aggs:
            func, alias = term.aggregate.func, term.aggregate.alias
            if func in ("sum", "avg"):
                values[alias] = np.zeros(n_groups)
                if term.compensated:
                    comps[alias] = np.zeros(n_groups)
            elif func != "count":
                values[alias] = np.full(
                    n_groups, np.inf if func == "min" else -np.inf)
        for partial in acc.chunks:
            present = np.searchsorted(union, partial.present)
            counts[present] += partial.counts
            for term in self.dense.aggs:
                func, alias = term.aggregate.func, term.aggregate.alias
                if func == "count":
                    continue
                shipped, target = partial.values[alias], values[alias]
                if term.compensated:
                    # Neumaier: accumulate the rounding error of every
                    # merge so it can be added back in one step.
                    stats["compensated_merges"] += 1
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
        return MorselPartial(index, "agg", present=union, counts=counts,
                             values=values, chain_counts=totals)

    def _chain_sizes(self, totals: Tuple[int, ...]
                     ) -> List[Tuple[int, int, int]]:
        """(actual rows, nominal rows, row width) after each chain
        operator — scan, refines, joins — from their output row counts,
        by each operator's own ``output_size`` rule."""
        sizes = [self.scan_op.output_size(self.database, totals[0])]
        counts = iter(totals[1:])
        for refine in self.refines:
            sizes.append(refine.output_size(next(counts), *sizes[-1][:2]))
        for stage in self.stages:
            sizes.append(stage.op.output_size(
                next(counts), *sizes[-1][:2], len(stage.table_order)))
        return sizes

    def replay_nominal(self, totals: Tuple[int, ...]) -> Tuple[int, int]:
        """(actual, nominal) rows of the chain's last operator, replayed
        from summed per-op output counts — the same arithmetic the
        sequential path applies while recording."""
        return self._chain_sizes(totals)[-1][:2]

    # -- recording -----------------------------------------------------

    def run_recorded(self) -> None:
        """Sequential fused execution: run every morsel, then fill every
        covered operator's memo with the byte-identical result tuple."""
        sink = {op.op_id: [] for op in self.covered_ops}
        for start, stop in self.ranges():
            self.run_morsel(start, stop, sink=sink)
        self._record(sink)

    def _record(self, sink: Dict[int, list]) -> None:
        database = self.database
        fact = self.fact_table

        # payload per chain operator, in execution order
        if self.fact_predicate is None:
            entry = SelectionVector(n=database.table(fact).actual_rows)
        else:
            entry = SelectionVector(np.concatenate(sink[self.scan_op.op_id]))
        payloads = [TidSet({fact: entry})]
        for refine in self.refines:
            entry = SelectionVector(np.concatenate(sink[refine.op_id]))
            payloads.append(TidSet({fact: entry}))
        for stage in self.stages:
            chunks = sink[stage.op.op_id]
            payloads.append(TidSet({
                name: np.concatenate([chunk[name] for chunk in chunks])
                for name in stage.table_order
            }))

        sizes = self._chain_sizes(tuple(len(payload) for payload in payloads))
        for op, payload, size in zip(self.covered_ops, payloads, sizes):
            cached = (payload, *size)
            self._memoise(op, cached)

        if self.dense is not None:
            payload, n_rows = cached[0], cached[1]
            result = self._finalize_aggregate(self._aggregate_partial(
                0, Frame(database, payload.tables), n_rows))
            self._memoise(self.breaker, (
                result.payload, result.actual_rows, result.nominal_rows,
                result.row_width_bytes))
        else:
            # Materialise / non-dense aggregate: run the breaker once
            # at the barrier over the fused chain's recorded output;
            # produce() memoises the breaker itself.
            if self.breaker_kind == "agg":
                stats["barrier_breakers"] += 1
            self.breaker.produce(database, [OperatorResult(*cached)])

    def _memoise(self, op, cached) -> None:
        op._cached_result = cached
        plan_cache.store(self.database, op.fingerprint(), cached)


# ---------------------------------------------------------------------------
# Pipeline construction
# ---------------------------------------------------------------------------

def _analyze_structure(pipe: FusedPipeline) -> None:
    """Peel the plan into tail / breaker / join chain / scan by the
    operators' declared roles, or decline."""
    node = pipe.plan.root
    tail = []
    while node.role == "tail":
        tail.append(node)
        node = node.children[0]
    pipe.tail = list(reversed(tail))

    if node.role == "aggregate":
        pipe.breaker_kind = "agg"
    elif node.role == "project":
        pipe.breaker_kind = "frame"
    else:
        raise Decline("breaker_shape")
    pipe.breaker = node

    joins = []
    node = node.children[0]
    while node.role == "join":
        joins.append(node)
        node = node.children[0]
    while node.role == "refine":
        pipe.refines.append(node)
        node = node.children[0]
    if node.role != "scan":
        raise Decline("leaf_shape")
    pipe.scan_op = node
    pipe.fact_table = node.table
    pipe.fact_predicate = node.predicate
    pipe.refines.reverse()
    for refine in pipe.refines:
        if refine.table != pipe.fact_table:
            raise Decline("refine_table")

    joins.reverse()  # execution order: bottom-up
    available = [pipe.fact_table]
    for join in joins:
        build = join.children[1]
        if build.role != "scan":
            raise Decline("build_shape")
        if build.table != join.build_key.table:
            raise Decline("build_shape")
        if join.probe_key.table not in available:
            raise Decline("probe_lineage")
        if build.table in available:
            raise Decline("duplicate_table")
        available.append(build.table)
        pipe.stages.append(_Stage(join, join.probe_key.table, build.table,
                                  list(available)))

    pipe.covered_ops = ([pipe.scan_op] + pipe.refines
                        + [stage.op for stage in pipe.stages]
                        + [pipe.breaker])


def _prepare_probers(pipe: FusedPipeline, cache) -> None:
    """Run the build-side scans (memoised) and pick a prober each."""
    database = pipe.database
    for stage in pipe.stages:
        join = stage.op
        build_result = join.children[1].produce(database, [])
        selection = build_result.payload.selection(stage.build_table)
        if selection is None:
            raise Decline("build_not_lazy")
        probe_column = database.column(join.probe_key.key)
        stage.probe_values = probe_column.values
        stage.prober = kernels.prober_for(
            cache, database.column(join.build_key.key), selection,
            probe_column,
        )
        if stage.prober is None:
            raise Decline("build_stale")


def _prepare_dense_aggregate(pipe: FusedPipeline, cache) -> None:
    """Plan the mixed-radix aggregation, or leave ``dense`` unset (the
    breaker then runs once at a barrier over the fused chain)."""
    breaker = pipe.breaker
    database = pipe.database
    available = ([pipe.fact_table]
                 + [stage.build_table for stage in pipe.stages])
    # Evaluating the breaker's expressions over zero rows reproduces
    # numpy's promotion (and the engine's int32→int64 widening) without
    # interpreting expression trees.
    empty = BlockFrame(database)

    terms: List[_GroupTerm] = []
    domain = 1
    for ref in breaker.group_refs:
        if not isinstance(ref, ColumnRef) or ref.table not in available:
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
        dictionary = (column.dictionary
                      if column.ctype is ColumnType.STRING else None)
        terms.append(_GroupTerm(ref, low, radix, column.values.dtype,
                                dictionary))
    stride = 1
    for term in reversed(terms):
        term.stride = stride
        stride *= term.radix

    aggs: List[_AggTerm] = []
    for aggregate in breaker.aggregates:
        if aggregate.func == "count":
            aggs.append(_AggTerm(aggregate, True))
            continue
        try:
            probe = np.asarray(aggregate.expr.evaluate(empty))
        except Exception:
            return
        if probe.dtype == np.int32:
            probe = probe.astype(np.int64)
        is_integer = bool(np.issubdtype(probe.dtype, np.integer))
        if aggregate.func in ("sum", "avg") and not is_integer:
            if probe.dtype.kind not in "f":
                return
            # Float partial sums can reorder rounding across chunks;
            # merge them with Neumaier compensation and let the pool's
            # byte-identity gate decline queries where it still shows.
            aggs.append(_AggTerm(aggregate, False, compensated=True))
            continue
        if aggregate.func in ("min", "max") and probe.dtype.kind not in "iufb":
            return
        aggs.append(_AggTerm(aggregate, is_integer))

    pipe.dense = _DenseAggregate(terms, aggs, domain,
                                 grouped=bool(breaker.group_refs))


def build(plan, database) -> FusedPipeline:
    """Analyse and bind ``plan``; raises :class:`Decline` when the plan
    cannot run fused."""
    cache = kernels.cache_for(database)
    pipe = FusedPipeline(plan, database)
    _analyze_structure(pipe)
    pipe.fact_rows = database.table(pipe.fact_table).actual_rows
    _prepare_probers(pipe, cache)
    if pipe.breaker_kind == "agg":
        _prepare_dense_aggregate(pipe, cache)
    return pipe


def execute_direct(plan, database) -> Optional[OperatorResult]:
    """Serve a ``Limit``-rooted plan straight from the fused chain with
    cross-chunk early termination, or return None.

    Eligible plans have a materialising breaker whose only tail
    operator is the root ``Limit``: morsels are consumed in ascending
    fact order, and once the merged frame holds ``n`` rows the
    remaining ranges never run.  Identity with the reference path is
    structural: the processed prefix's concatenation equals the full
    run's first rows (ascending chunk merge), and ``Limit``'s nominal
    count is ``min(child_nominal, n)`` — when the scan stops early the
    gathered rows already reach ``n`` and ``scaled_nominal_rows`` keeps
    every chain nominal at or above its actual count, so both the
    partial and the full child nominal clamp to ``n``.  Aggregating
    breakers (every input row matters) and extra tail operators (a
    ``Sort`` below the ``Limit`` needs all rows) are declined,
    reason-counted under ``limit_*``.

    The served result is **never memoised**: the covered operators'
    memos would hold prefix-only intermediates, poisoning later plans
    that share the chain.
    """
    root = plan.root
    if root.kind != "limit":  # ``Limit`` alone declares this kind
        return None
    try:
        if root.n <= 0:
            raise Decline("limit_nonpositive")
        if _memoised(root, database):
            # the ordinary path serves the memo for free — and the
            # direct path must never shadow recorded full results
            raise Decline("limit_memoised")
        pipe = build(plan, database)
        if pipe.breaker_kind != "frame":
            raise Decline("limit_breaker")
        if pipe.tail != [root]:
            raise Decline("limit_tail")
        stopped_at: Optional[int] = None

        def prefix():
            nonlocal stopped_at
            gathered = 0
            for start, stop in pipe.ranges():
                partial = pipe.run_morsel(start, stop, index=start,
                                          collect=True)
                yield partial
                gathered += partial.chain_counts[-1]
                if gathered >= root.n:
                    stopped_at = stop
                    return

        result = pipe.merge(prefix())
    except Decline as decline:
        reason = decline.reason
        if not reason.startswith("limit_"):
            reason = "limit_" + reason
        decline_reasons[reason] += 1
        return None
    except Exception:
        decline_reasons["limit_error"] += 1
        return None
    stats["limit_fused_queries"] += 1
    if stopped_at is not None and stopped_at < pipe.fact_rows:
        stats["limit_early_stops"] += 1
        stats["limit_rows_skipped"] += pipe.fact_rows - stopped_at
    return result


def _memoised(op, database) -> bool:
    """True when ``op``'s result is already recorded — in its template
    memo or the cross-plan cache (peeked: no hit/miss counter moves)."""
    return (op._cached_result is not None
            or plan_cache.peek(database, op.fingerprint()) is not None)


def prepare_fused(plan, database) -> bool:
    """Record-mode fused execution: run the plan's fused chain and fill
    the covered operators' memos.  Returns True when the plan ran fused
    (the executor loop then serves memoised results), False when fusion
    declined or everything was already memoised."""
    if all(_memoised(op, database) for op in plan.operators):
        return False  # a warm plan builds nothing, not even a pipeline
    try:
        pipe = build(plan, database)
        if all(_memoised(op, database) for op in pipe.covered_ops):
            return False  # only tail operators are left to run
        pipe.run_recorded()
    except Decline as decline:
        stats["declined_queries"] += 1
        decline_reasons[decline.reason] += 1
        return False
    except Exception:
        # Never let the acceleration layer break a query: anything the
        # fused path trips over, the unfused path will surface properly.
        stats["declined_queries"] += 1
        decline_reasons["error"] += 1
        return False
    stats["fused_queries"] += 1
    stats["fused_operators"] += len(pipe.covered_ops)
    return True
