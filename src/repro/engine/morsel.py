"""Fused morsel-driven execution: the functional layer's default schedule.

The simulator charges every operator its own materialised intermediate
(CoGaDB is operator-at-a-time, paper Sec. 2.5), but the *host* work
behind those intermediates does not have to run that way.  This module
schedules the hot mid-query chain — ``ScanSelect`` → ``RefineSelect``*
→ ``HashJoin``* → (``GroupByAggregate`` | ``Materialize``) — morsel by
morsel over cache-sized row ranges of the fact table.

It computes nothing itself.  What a morsel computes is each chain
operator's *chunk kernel*, on its class — ``ScanSelect.select`` /
``RefineSelect.select``, ``HashJoin.match``, and the breakers'
``partial`` / ``merge`` / ``finish`` — and an operator's ``run()`` is
the same kernel called once over the whole column; the reasons chunk
outputs concatenate to the one-chunk output stand with the kernels.
Here are the ranges, the chain over a range (the joins bound once per
pipeline, :class:`~repro.engine.kernels.Chain`, behind the filter
stages of the selections that fold into it), what gets recorded where,
the order partials are absorbed in, the replay of the nominal-row rule
and the reasons to decline.

Sequential execution is *recording*: a fused run fills the
per-template result memo (and the cross-plan cache) of every covered
operator with the identical ``(payload, actual, nominal, width)``
tuples the operator path would produce, then
:func:`~repro.engine.execution.functional.execute_operators`' ordinary
post-order loop serves them — tail operators
(Sort/Limit/Distinct/FrameFilter) and all bookkeeping run unchanged.
The chain runs over the entry in one pass and the breaker runs once,
at the barrier, over the chain's output.  A join's recording — and a
folded selection's — is its sizes, from the chain's per-stage counts,
over a deferred payload (:func:`_deferred`): nothing reads its tids
once the breaker is recorded, and a read runs its own operator path.
A recording starts where the recorded selections end (:func:`_resume`):
its morsels are cut over the fact mask of the deepest covered selection
the template memo or the plan cache already answers, and only the
operators after it run.
Pooled execution ships one breaker partial per worker chunk instead
and merges them (:meth:`FusedPipeline.merge`); its chunks are fact-row
ranges and enter at the scan.  A plan shape outside the fused form
declines (reason-counted in :data:`decline_reasons`) and the plan runs
operator by operator.
"""

from __future__ import annotations

import weakref
from collections import Counter
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine import caches, kernels, plan_cache
from repro.engine.frame import BlockFrame, Frame
from repro.engine.intermediates import (
    OperatorResult,
    SelectionVector,
    TidSet,
)
from repro.engine.operators.base import ChunkPartial

#: Rows per morsel: roughly the L2-sized ranges morsel-driven schedulers
#: hand out.  Read at call time; results do not depend on it.
MORSEL_ROWS = 65536

#: Event counters for metrics, benchmarks, and tests.
stats = {
    "fused_queries": 0,
    "declined_queries": 0,
    "morsels": 0,
    "fused_operators": 0,
    "resumed_operators": 0,
    "partial_merges": 0,
    "dense_aggregates": 0,
    "barrier_breakers": 0,
    "compensated_merges": 0,
    "deferred_reads": 0,
    "folded_selections": 0,
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


class Decline(Exception):
    """Raised internally when a plan cannot run on the fused path."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Stage:
    """One fused join: its build side's recorded scan, its prober, the
    join bound alone (what ``run_morsel`` matches through), and the
    tables its output aligns (in TidSet order)."""

    __slots__ = ("op", "build", "prober", "chain", "table_order")

    def __init__(self, op, table_order):
        self.op = op
        self.build = self.prober = self.chain = None
        self.table_order = table_order


class FusedPipeline:
    """A plan's fused form, bound to one database.

    Build with :func:`build`.  Two consumption styles:

    * *recording* (sequential): :meth:`run_recorded` executes every
      morsel, then fills the covered operators' memos with
      byte-identical result tuples.
    * *pooled*: :meth:`run_chunk` reduces a row range to one small
      picklable partial of the breaker; the scheduling side merges
      them with :meth:`absorb` / :meth:`finalize` and applies
      :meth:`run_tail`.
    """

    def __init__(self, plan, database):
        self.plan = plan
        self.database = database
        self.fact_table: str = ""
        self.fact_rows: int = 0
        self.scan_op = None
        self.selections: List = []  # the scan, then its refines
        self.stages: List[_Stage] = []
        #: the joins bound for the chain kernel, behind the filter
        #: stages of the last ``folded`` selections; None: per morsel
        self.chain: Optional[kernels.Chain] = None
        self.folded = 0
        #: the columns of the chain's counts after each folded
        #: selection (its last filter stage) and each join
        self.counted: List[int] = []
        #: the ``aggregate`` / ``project`` operator the chain ends in
        self.breaker = None
        self.tail: List = []  # breaker → root, in execution order
        self.covered_ops: List = []
        #: where the chain starts (:func:`_resume`; None: the scan) and
        #: the selection's mask its morsels slice.  The three lists
        #: above then hold only what is left to run.
        self.entry: Optional[OperatorResult] = None
        self.entry_mask: Optional[np.ndarray] = None
        self.resumed = 0

    # -- capability queries -------------------------------------------

    @property
    def supports_partials(self) -> bool:
        """True when morsels reduce to small partials a pool can ship
        and merge (dense aggregation or plain materialisation)."""
        return self.breaker.supports_partials

    @property
    def compensated(self) -> bool:
        """True when any aggregate merges float partials with Neumaier
        compensation — pooled results then need the byte-identity gate."""
        return self.breaker.compensated_terms > 0

    def ranges(self) -> List[Tuple[int, int]]:
        return self._spans(0, self.fact_rows)

    @staticmethod
    def _spans(start: int, stop: int) -> List[Tuple[int, int]]:
        """The morsels of fact rows ``[start, stop)`` (one, empty, over
        no rows: an ungrouped aggregate still owes its row)."""
        if start == stop:
            return [(start, stop)]
        return [(pos, min(pos + MORSEL_ROWS, stop))
                for pos in range(start, stop, MORSEL_ROWS)]

    # -- the chain over a row range ------------------------------------

    def _enter(self, start: int, stop: int):
        """What enters the chain over rows ``[start, stop)``: the mask
        after each selection left to run that did not fold (None while
        no predicate has applied; one ``select`` each over the range)
        and the last one."""
        block = BlockFrame(self.database)
        block.set_range(start, stop)
        mask = None if self.entry_mask is None else self.entry_mask[start:stop]
        masks = []
        for op in self.selections[:len(self.selections) - self.folded]:
            if op.predicate is not None:  # a bare scan selects all
                mask = op.select(block, mask)
            masks.append(mask)
        return masks, mask

    def run_morsel(self, start: int, stop: int, mask=None):
        """The joins over the rows ``[start, stop)`` of one morsel, one
        ``match`` each through the join's binding of one: the reference
        of the chain kernel, and :meth:`_run`'s path where the pipeline
        has none.  Takes the morsel's last mask from :meth:`_enter`;
        returns the rows entering and after each join, and the absolute
        tids per reachable table after the last (with no join, the fact
        table's; None: all rows)."""
        stats["morsels"] += 1
        tids = None if mask is None else start + np.flatnonzero(mask)
        lineage = {self.fact_table: tids}
        counts = [stop - start if tids is None else len(tids)]
        for stage in self.stages:
            lineage = stage.op.match(stage.chain, lineage, start,
                                     start + counts[-1])
            counts.append(len(lineage[stage.op.build_key.table]))
        return counts, lineage

    def _run(self, start: int, stop: int):
        """The chain over rows ``[start, stop)``, morsel by morsel in one
        pass: the mask of each selection :meth:`_enter` runs over the
        range; per morsel, the rows entering the chain and after each
        stage (:attr:`counted` picks the folded selections' and the
        joins'); and each table's tids over the range after the last
        stage (views valid until the next call) — from one call of the
        chain kernel, or :meth:`run_morsel` per morsel without one."""
        masks, mask = self._enter(start, stop)
        lineage = {self.fact_table: None}  # all rows of the range
        # each morsel's first row, counted from ``start`` (as ``_spans``)
        starts = np.arange(0, max(stop - start, 1), MORSEL_ROWS)
        found = None
        if self.chain is not None:
            found = self.chain.run(lineage, start, stop, mask, MORSEL_ROWS)
            if found is None and self.folded:
                raise Decline("fold_refused")  # no numpy twin to fall to
        elif not self.stages:  # what the selections keep is the output
            rows = np.diff(starts, append=stop - start)
            if mask is not None:
                lineage = {self.fact_table: start + np.flatnonzero(mask)}
                if len(mask):
                    rows = np.add.reduceat(mask, starts, dtype=np.int64)
            found = rows[:, None], lineage
        if found is None:
            runs = [self.run_morsel(low, high, None if mask is None else
                                    mask[low - start:high - start])
                    for low, high in self._spans(start, stop)]
            return masks, np.array([counts for counts, _ in runs]), {
                name: np.concatenate([run[name] for _, run in runs])
                for name in runs[0][1]}
        stats["morsels"] += len(starts)
        return (masks, *found)

    def batches(self, start: int, stop: int, progress=None):
        """One partial per batch of fact rows ``[start, stop)``, cut from
        one :meth:`_run`: a batch closes once its morsels' output holds
        :data:`MORSEL_ROWS` rows or the range ends, and the breaker's
        partial over it is stamped with its first row and its rows after
        each chain operator; ``progress`` (no-arg) fires after each."""
        masks, counts, lineage = self._run(start, stop)
        first, done, total = 0, 0, 0
        for number, rows in enumerate(counts[:, -1].tolist(), 1):
            total += rows
            if total < MORSEL_ROWS and number < len(counts):
                continue
            low = start + first * MORSEL_ROWS
            high = min(start + number * MORSEL_ROWS, stop)
            if lineage[self.fact_table] is None:  # every row of the range
                frame = BlockFrame(self.database)
                frame.set_range(low, high)
            else:
                frame = Frame(self.database, {
                    name: tids[done:done + total]
                    for name, tids in lineage.items()})
            partial = self.breaker.partial(frame, total)
            partial.index = low
            partial.chain_counts = tuple(
                [high - low if mask is None else
                 int(np.count_nonzero(mask[low - start:high - start]))
                 for mask in masks]
                + counts[first:number, self.counted].sum(axis=0).tolist())
            if progress is not None:
                progress()
            yield partial
            first, done, total = number, done + total, 0

    # -- merging (pooled) ---------------------------------------------

    def new_accumulator(self) -> List[ChunkPartial]:
        """The partials of one pooled execution, buffered in absorb
        order until the breaker merges them."""
        if not self.supports_partials:
            raise Decline("no_partials")
        return []

    def absorb(self, acc: List[ChunkPartial], partial: ChunkPartial) -> None:
        """Buffer one partial for the breaker's ``merge``, which takes
        aggregate partials in absorb order and frame chunks by index."""
        stats["partial_merges"] += 1
        stats["compensated_merges"] += self.breaker.compensated_terms
        acc.append(partial)

    def _absorb_all(self, partials):
        """Absorb ``partials`` in order; returns (accumulator, summed
        chain counts)."""
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
        — the one merge the morsel pool and the split identity gate
        share."""
        acc, totals = self._absorb_all(partials)
        _, prev_nominal = self.replay_nominal(totals)
        return self.run_tail(self.finalize(acc, prev_nominal))

    # -- finalisation --------------------------------------------------

    def finalize(self, acc: List[ChunkPartial],
                 prev_nominal: int) -> OperatorResult:
        """Breaker result from merged partials (pooled executions)."""
        self._count_breaker()
        return self.breaker.finish(
            self.database, self.breaker.merge(acc), prev_nominal)

    def _count_breaker(self) -> None:
        if self.breaker.role == "aggregate":
            dense = self.breaker.supports_partials
            stats["dense_aggregates" if dense else "barrier_breakers"] += 1

    def run_tail(self, result: OperatorResult) -> OperatorResult:
        """Apply the tail operators (Sort/Limit/...) above the breaker."""
        for op in self.tail:
            result = op.run(self.database, [result])
        return result

    # -- chunked execution (worker side of the morsel pool) ------------

    def run_chunk(self, start: int, stop: int,
                  progress=None) -> ChunkPartial:
        """Run every morsel of fact rows ``[start, stop)`` and merge
        its batches (:meth:`batches`, a morsel's worth of rows each)
        locally into ONE picklable partial — the pool ships a single
        message per worker chunk, and the breaker runs once per batch.

        ``progress`` (no-arg callable) fires after each batch; pool
        workers heartbeat through it and, through the kernel call (which
        releases the GIL), from their heartbeat thread.
        """
        acc, totals = self._absorb_all(self.batches(start, stop, progress))
        packed = self.breaker.merge(acc)
        packed.index, packed.chain_counts = start, totals
        return packed

    def _chain_sizes(self, totals: Tuple[int, ...]
                     ) -> List[Tuple[int, int, int]]:
        """(actual rows, nominal rows, row width) after each chain
        operator left to run — scan, refines, joins — from their output
        row counts, by each operator's own ``output_size`` rule, chained
        from the entry's recorded sizes."""
        size = self.entry and (self.entry.actual_rows,
                               self.entry.nominal_rows)
        sizes, counts = [], iter(totals)
        for op in self.selections:
            size = (op.output_size(self.database, next(counts))
                    if op is self.scan_op
                    else op.output_size(next(counts), *size[:2]))
            sizes.append(size)
        for stage in self.stages:
            size = stage.op.output_size(
                next(counts), *size[:2], len(stage.table_order))
            sizes.append(size)
        return sizes

    def replay_nominal(self, totals: Tuple[int, ...]) -> Tuple[int, int]:
        """(actual, nominal) rows of the chain's last operator, replayed
        from summed per-op output counts — the same arithmetic the
        sequential path applies while recording."""
        return self._chain_sizes(totals)[-1][:2]

    # -- recording -----------------------------------------------------

    def run_recorded(self) -> None:
        """Sequential fused execution: run every morsel of the entry in
        one pass (none when only the breaker is left), then fill the memo
        of every operator left to run with its result tuple — a
        selection's from its mask, a folded selection's and a join's
        sizes from the chain's counts over a :func:`_deferred` payload —
        and the breaker's by running it once, at the barrier, over the
        chain's output."""
        result = self.entry
        if len(self.covered_ops) > 1:
            masks, counts, lineage = self._run(0, self.fact_rows)
            payloads = [TidSet({self.fact_table: SelectionVector(
                mask, self.fact_rows)}) for mask in masks]
            sizes = self._chain_sizes([len(payload) for payload in payloads]
                                      + counts[:, self.counted].sum(
                                          axis=0).tolist())
            for op, size in zip(self.selections, sizes):
                payload = (payloads.pop(0) if payloads else _deferred(
                    op, [result][:len(op.children)], self.database,
                    size[0]))
                result = op.record(self.database,
                                   OperatorResult(payload, *size))
            for stage, size in zip(self.stages, sizes[len(self.selections):]):
                result = stage.op.record(self.database, OperatorResult(
                    _deferred(stage.op, [result, stage.build],
                              self.database, size[0]),
                    *size))
            if self.chain is not None or self.stages:
                # the breaker reads the chain's tids, not a deferred read
                result = OperatorResult(TidSet(lineage), *sizes[-1])
        self._count_breaker()
        self.breaker.record(self.database, self.breaker.run(
            self.database, [result]))


def _deferred(op, children: List[OperatorResult], database,
              rows: int) -> TidSet:
    """``op``'s output, ``rows`` rows, as a TidSet computed on its first
    read (counted in ``deferred_reads``) by the operator's own path over
    its recorded ``children``: a join's are the result recorded below it
    and the build side's scan, a refine's the result below it.  The
    database is held weakly, as the memo holding the payload holds
    it."""
    database = weakref.ref(database)

    def compute():
        stats["deferred_reads"] += 1
        return op.run(database(), children).payload.tables
    return TidSet.deferred(rows, compute)


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

    if node.role not in ("aggregate", "project"):
        raise Decline("breaker_shape")
    pipe.breaker = node

    joins = []
    node = node.children[0]
    while node.role == "join":
        joins.append(node)
        node = node.children[0]
    while node.role == "refine":
        pipe.selections.append(node)
        node = node.children[0]
    if node.role != "scan":
        raise Decline("leaf_shape")
    pipe.scan_op = node
    pipe.fact_table = node.table
    pipe.selections.append(node)
    pipe.selections.reverse()
    for refine in pipe.selections:
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
        pipe.stages.append(_Stage(join, list(available)))

    pipe.covered_ops = (pipe.selections
                        + [stage.op for stage in pipe.stages]
                        + [pipe.breaker])


def _resume(pipe: FusedPipeline) -> None:
    """Start the chain after the deepest selection whose result is
    already recorded — the test ``produce()`` trusts — and keep only what
    is left to run: nothing when the breaker is recorded.  A recorded
    join or folded selection is no entry (its tids are deferred): it
    runs again."""
    if _recorded(pipe.breaker, pipe.database) is not None:
        del pipe.covered_ops[:], pipe.selections[:], pipe.stages[:]
        return
    for depth in range(len(pipe.selections), 0, -1):
        cached = _recorded(pipe.selections[depth - 1], pipe.database)
        if cached is not None and not cached[0].is_deferred:
            break
    else:
        return  # nothing recorded: enter at the scan
    del pipe.covered_ops[:depth], pipe.selections[:depth]
    pipe.resumed, pipe.entry = depth, OperatorResult(*cached)
    selection = pipe.entry.payload.selection(pipe.fact_table)
    if selection is None:
        raise Decline("entry_not_lazy")
    pipe.entry_mask = selection.mask


def _prepare_probers(pipe: FusedPipeline, cache) -> None:
    """Run the build-side scans (memoised), pick a prober each, and bind
    the joins once: each alone, and all for the chain kernel (None
    where it does not take them all: they run per morsel) behind the
    filter stages of the last selections whose predicates fold, where
    the kernel takes them too (:attr:`FusedPipeline.folded`)."""
    database = pipe.database
    names = [pipe.fact_table]
    links = []
    for stage in pipe.stages:
        join = stage.op
        stage.build = join.children[1].produce(database, [])
        selection = stage.build.payload.selection(join.build_key.table)
        if selection is None:
            raise Decline("build_not_lazy")
        probe_column = database.column(join.probe_key.key)
        stage.prober = kernels.prober_for(
            cache, database.column(join.build_key.key), selection,
            probe_column,
        )
        if stage.prober is None:
            raise Decline("build_stale")
        links.append((stage.prober, probe_column.values,
                      join.probe_key.table, join.build_key.table))
        stage.chain = kernels.Chain(links[-1:], names + [
            build for *_, build in links[:-1]])
    folded = []  # each folded selection's filter stages, in order
    for op in reversed(pipe.selections):
        found = op.filter_stages(database)
        if not found:
            break
        folded.insert(0, found)
    filters = [(term, values, pipe.fact_table, None)
               for found in folded for term, values in found]
    chain = kernels.Chain(filters + links, names)
    if chain.kernel is None and filters:  # the joins run per morsel
        folded, filters = [], []
        chain = kernels.Chain(links, names)
    pipe.chain = None if chain.kernel is None else chain
    pipe.folded = len(folded)
    pipe.counted = list(accumulate(len(found) for found in folded)) + list(
        range(len(filters) + 1, len(filters) + len(links) + 1))
    stats["folded_selections"] += pipe.folded


def build(plan, database, resume: bool = False) -> FusedPipeline:
    """Analyse and bind ``plan``; raises :class:`Decline` when the plan
    cannot run fused.  The chain enters at the scan unless ``resume``
    (recording) starts it where the recorded results end."""
    cache = caches.memo(database, "kernels", kernels.KernelCache)
    pipe = FusedPipeline(plan, database)
    _analyze_structure(pipe)
    pipe.fact_rows = database.table(pipe.fact_table).actual_rows
    pipe.breaker.bind(database, pipe.stages[-1].table_order
                      if pipe.stages else [pipe.fact_table])
    if resume:
        _resume(pipe)
    _prepare_probers(pipe, cache)
    return pipe


def _recorded(op, database) -> Optional[Tuple]:
    """``op``'s recorded result tuple — from its template memo or the
    cross-plan cache (peeked: no hit/miss counter moves) — or None."""
    return op._cached_result or plan_cache.peek(database, op.fingerprint())


def prepare_fused(plan, database) -> bool:
    """Record-mode fused execution: run what no recording answers yet of
    the plan's fused chain and fill those operators' memos.  True when
    the plan ran fused (the executor loop then serves the memos), False
    when fusion declined or everything it covers was already recorded."""
    if all(_recorded(op, database) is not None for op in plan.operators):
        return False  # a warm plan builds nothing, not even a pipeline
    try:
        pipe = build(plan, database, resume=True)
        if not pipe.covered_ops:
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
    stats["resumed_operators"] += pipe.resumed
    return True
