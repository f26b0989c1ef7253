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
Here are the ranges, the chain loop, what gets recorded where, the
order partials are absorbed in, the replay of the nominal-row rule, the
``Limit`` early stop and the reasons to decline.

Sequential execution is *recording*: a fused run fills the
per-template result memo (and the cross-plan cache) of every covered
operator with the identical ``(payload, actual, nominal, width)``
tuples the operator path would produce, then
:func:`~repro.engine.execution.functional.execute_operators`' ordinary
post-order loop serves them — tail operators
(Sort/Limit/Distinct/FrameFilter) and all bookkeeping run unchanged.
The chain's chunk outputs are concatenated per operator and the
breaker runs once, at the barrier, over the recorded chain output.
A recording starts where the recorded results end (:func:`_resume`):
its morsels are cut over the payload of the deepest covered operator
the template memo or the plan cache already answers — a selection's
fact mask, a join's aligned tids — and only the operators after it run.
Pooled execution ships one breaker partial per worker chunk instead
and merges them (:meth:`FusedPipeline.merge`); its chunks, like the
``Limit`` prefix, are fact-row ranges and enter at the scan.  A plan
shape outside the fused form declines (reason-counted in
:data:`decline_reasons`) and the plan runs operator by operator.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine import kernels, plan_cache
from repro.engine.frame import BlockFrame, Frame
from repro.engine.intermediates import (
    OperatorResult,
    SelectionVector,
    TidSet,
)
from repro.engine.operators.base import ChunkPartial

#: Rows per morsel: roughly the L2-sized ranges morsel-driven schedulers
#: hand out.
DEFAULT_MORSEL_ROWS = 65536

_morsel_rows_override: Optional[int] = None

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
    """One fused join: its probe column, the build-side prober, and the
    tables its output aligns (in TidSet order)."""

    __slots__ = ("op", "probe_values", "prober", "table_order")

    def __init__(self, op, table_order):
        self.op = op
        self.probe_values = None
        self.prober = None
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
        #: the ``aggregate`` / ``project`` operator the chain ends in
        self.breaker = None
        self.tail: List = []  # breaker → root, in execution order
        self.covered_ops: List = []
        #: where the chain starts (:func:`_resume`; None: the scan) and
        #: what its morsels slice: a selection's mask or a join's tids.
        #: The three lists above then hold only what is left to run.
        self.entry: Optional[OperatorResult] = None
        self.entry_mask: Optional[np.ndarray] = None
        self.entry_tids: Optional[Dict[str, np.ndarray]] = None
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
        size = morsel_rows()
        return [(pos, min(pos + size, stop))
                for pos in range(start, stop, size)]

    # -- per-morsel execution -----------------------------------------

    def run_morsel(self, start: int, stop: int):
        """Run the chain over rows ``[start, stop)`` — of the fact
        table, or of the entry when the chain starts after a recorded
        join: the chunk output of every chain operator left to run, as
        ``(masks, lineages)`` — the cumulative mask after each selection
        (None while no predicate has applied), and the aligned absolute
        tids per reachable table entering the joins and after each one
        (None: every row of the morsel)."""
        stats["morsels"] += 1
        masks = []
        if self.entry_tids is None:
            block = BlockFrame(self.database)
            block.set_range(start, stop)
            mask = self.entry_mask
            if mask is not None:
                mask = mask[start:stop]
            for op in self.selections:
                if op.predicate is not None:  # a bare scan selects all
                    mask = op.select(block, mask)
                masks.append(mask)
            lineage = {self.fact_table: None if mask is None
                       else start + np.flatnonzero(mask)}
        else:
            lineage = {name: tids[start:stop]
                       for name, tids in self.entry_tids.items()}
        lineages = [lineage]
        for stage in self.stages:
            tids = lineage[stage.op.probe_key.table]
            keys = (stage.probe_values[start:stop] if tids is None
                    else stage.probe_values[tids])
            lineage = stage.op.match(stage.prober, keys, lineage, start)
            lineages.append(lineage)
        return masks, lineages

    def morsel_partial(self, start: int, stop: int) -> ChunkPartial:
        """The breaker's partial over fact rows ``[start, stop)``,
        stamped with the morsel's first row and the chain's per-operator
        output counts."""
        masks, lineages = self.run_morsel(start, stop)
        n_rows = stop - start
        # the last selection's count is the fact lineage's length, a
        # join's the length of the build tids it added; only the masks
        # that were ANDed further are counted
        fact_tids = lineages[0][self.fact_table]
        counts = [n_rows if mask is None else int(np.count_nonzero(mask))
                  for mask in masks[:-1]]
        counts.append(n_rows if fact_tids is None else len(fact_tids))
        for stage, lineage in zip(self.stages, lineages[1:]):
            counts.append(len(lineage[stage.op.build_key.table]))
        lineage = lineages[-1]
        if len(lineage) == 1 and lineage[self.fact_table] is None:
            frame = BlockFrame(self.database)
            frame.set_range(start, stop)
        else:
            frame = Frame(self.database, {
                name: (np.arange(start, stop, dtype=np.int64)
                       if tids is None else tids)
                for name, tids in lineage.items()
            })
        partial = self.breaker.partial(frame, counts[-1])
        partial.index, partial.chain_counts = start, tuple(counts)
        return partial

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
        them locally into ONE picklable partial — the pool ships a
        single message per worker chunk instead of one per morsel.

        ``progress`` (no-arg callable) fires after each morsel; pool
        workers heartbeat through it so the parent's watchdog can tell
        a slow chunk from a hung process.
        """
        def morsels():
            for span_start, span_stop in self._spans(start, stop):
                yield self.morsel_partial(span_start, span_stop)
                if progress is not None:
                    progress()

        acc, totals = self._absorb_all(morsels())
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
        """Sequential fused execution: run every morsel of the entry
        (none when only the breaker is left), then fill the memo of
        every operator left to run with the byte-identical result tuple
        — the chain's from its concatenated chunk outputs, the breaker's
        by running it once, at the barrier, over the chain's last."""
        selections, chain = self.selections, self.covered_ops[:-1]
        mask_chunks: List[list] = [[] for _ in selections]
        lineage_chunks: List[list] = [[] for _ in self.stages]
        rows = (self.fact_rows if self.entry_tids is None
                else self.entry.actual_rows)
        for start, stop in self._spans(0, rows) if chain else ():
            masks, lineages = self.run_morsel(start, stop)
            for chunks, mask in zip(mask_chunks, masks):
                chunks.append(mask)
            for chunks, lineage in zip(lineage_chunks, lineages[1:]):
                chunks.append(lineage)

        # payload per chain operator, in execution order
        payloads = []
        for op, chunks in zip(selections, mask_chunks):
            entry = (SelectionVector(n=self.fact_rows)
                     if op.predicate is None
                     else SelectionVector(np.concatenate(chunks)))
            payloads.append(TidSet({self.fact_table: entry}))
        for stage, chunks in zip(self.stages, lineage_chunks):
            payloads.append(TidSet({
                name: np.concatenate([chunk[name] for chunk in chunks])
                for name in stage.table_order
            }))

        sizes = self._chain_sizes(tuple(len(payload) for payload in payloads))
        result = self.entry
        for op, payload, size in zip(chain, payloads, sizes):
            result = op.record(self.database, OperatorResult(payload, *size))
        self._count_breaker()
        self.breaker.record(self.database, self.breaker.run(
            self.database, [result]))


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
    """Start the chain after the deepest covered operator whose result
    is already recorded — the test ``produce()`` trusts — and keep only
    what is left to run: nothing when that is the breaker itself."""
    for depth in range(len(pipe.covered_ops), 0, -1):
        cached = _recorded(pipe.covered_ops[depth - 1], pipe.database)
        if cached is not None:
            break
    else:
        return  # nothing recorded: enter at the scan
    joins = max(depth - len(pipe.selections), 0)
    del pipe.covered_ops[:depth], pipe.selections[:depth], pipe.stages[:joins]
    if not pipe.covered_ops:
        return
    pipe.resumed, pipe.entry = depth, OperatorResult(*cached)
    if joins:
        pipe.entry_tids = pipe.entry.payload.tables
    else:
        selection = pipe.entry.payload.selection(pipe.fact_table)
        if selection is None:
            raise Decline("entry_not_lazy")
        pipe.entry_mask = selection.mask


def _prepare_probers(pipe: FusedPipeline, cache) -> None:
    """Run the build-side scans (memoised) and pick a prober each."""
    database = pipe.database
    for stage in pipe.stages:
        join = stage.op
        build_result = join.children[1].produce(database, [])
        selection = build_result.payload.selection(join.build_key.table)
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


def build(plan, database, resume: bool = False) -> FusedPipeline:
    """Analyse and bind ``plan``; raises :class:`Decline` when the plan
    cannot run fused.  The chain enters at the scan unless ``resume``
    (recording) starts it where the recorded results end."""
    cache = kernels.cache_for(database)
    pipe = FusedPipeline(plan, database)
    _analyze_structure(pipe)
    pipe.fact_rows = database.table(pipe.fact_table).actual_rows
    pipe.breaker.bind(database, pipe.stages[-1].table_order
                      if pipe.stages else [pipe.fact_table])
    if resume:
        _resume(pipe)
    _prepare_probers(pipe, cache)
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
        if _recorded(root, database) is not None:
            # the ordinary path serves the memo for free — and the
            # direct path must never shadow recorded full results
            raise Decline("limit_memoised")
        pipe = build(plan, database)
        if pipe.breaker.role != "project":
            raise Decline("limit_breaker")
        if pipe.tail != [root]:
            raise Decline("limit_tail")
        stopped_at: Optional[int] = None

        def prefix():
            nonlocal stopped_at
            gathered = 0
            for start, stop in pipe.ranges():
                partial = pipe.morsel_partial(start, stop)
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
