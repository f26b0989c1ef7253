"""Operator and plan base classes."""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.engine import plan_cache
from repro.engine.intermediates import OperatorResult
from repro.storage import Database

#: 32-bit OIDs, as CoGaDB/MonetDB configure them in the paper's setup.
TID_BYTES = 4

#: The plan shapes an operator class can declare as its ``role``:
#: ``scan`` (leaf), ``refine`` (one TidSet in, one out), ``intersect``
#: and ``join`` (two TidSets in), ``aggregate`` and ``project`` (TidSet
#: in, ResultFrame out) and ``tail`` (ResultFrame in and out).
ROLES = ("scan", "refine", "intersect", "join", "aggregate", "project",
         "tail")

_op_counter = itertools.count(1)


class OpEstimate(NamedTuple):
    """Compile-time size estimates for one operator."""

    input_bytes: float
    out_rows: float
    out_bytes: float


class ChunkPartial:
    """What a breaker (``GroupByAggregate``, ``Materialize``) reduces
    one chunk of its input to — small and picklable, so a pool worker
    can ship it.  The breaker's ``partial`` / ``merge`` fill the
    subclass's fields; the schedule that cut the chunks stamps these."""

    __slots__ = ("index", "chain_counts")

    def __init__(self):
        #: first fact row of the chunk: the order frame chunks merge in
        self.index = 0
        #: output rows of each chain operator (scan, refines, joins)
        #: below the breaker, summed to replay the nominal-row rule
        self.chain_counts = None


class PhysicalOperator:
    """A node in a physical query plan.

    Operators form a tree; children produce fully materialised
    :class:`OperatorResult` instances before the parent runs
    (operator-at-a-time execution).
    """

    #: cost model key; subclasses override
    kind = "scan"
    #: operators that must run on the host (e.g. final result delivery)
    cpu_only = False
    #: plan shape, one of :data:`ROLES`: what the fused pipelines and
    #: the vectorized chains read to decide what chains, what breaks
    #: and what trails the breaker; subclasses override
    role = ""

    def __init__(self, children: Optional[List["PhysicalOperator"]] = None,
                 label: str = ""):
        self.children: List[PhysicalOperator] = list(children or [])
        self.op_id = next(_op_counter)
        self.label = label or type(self).__name__
        #: compile-time processor assignment ("cpu"/"gpu"); None means
        #: the executor decides at run time
        self.placement: Optional[str] = None
        #: memoised functional result (payload, actual, nominal, width);
        #: repeated workload executions reuse the numpy work while the
        #: simulation still models every timing aspect independently
        self._cached_result = None
        #: lazily computed structural fingerprint (see :meth:`fingerprint`);
        #: ``False`` marks an operator the cross-plan cache cannot key
        self._fingerprint = None
        #: lazily computed ``(frozenset, sorted tuple)`` of the base
        #: columns read (see :meth:`required_columns`); shared with
        #: clones the same way the fingerprint is
        self._columns = None
        #: set when the operator joins a PhysicalPlan (used by tracing)
        self.plan_name = "query"

    def __repr__(self) -> str:
        return "<{} #{} kind={} on={}>".format(
            self.label, self.op_id, self.kind, self.placement or "?"
        )

    # -- interface ------------------------------------------------------

    def _read_columns(self) -> Set[str]:
        """Base column keys this operator reads directly; subclasses
        override this, callers ask :meth:`required_columns`."""
        return set()

    def required_columns(self) -> FrozenSet[str]:
        """Base column keys this operator reads directly.

        Fixed at construction (predicates and key references never
        change), so the expression trees are walked once per template:
        the result is cached on the instance and clones share it.
        """
        if self._columns is None:
            keys = frozenset(self._read_columns())
            self._columns = (keys, tuple(sorted(keys)))
        return self._columns[0]

    def column_keys(self) -> Tuple[str, ...]:
        """:meth:`required_columns` as a sorted tuple — the order for
        anything order-sensitive (recency ticks, fault rolls, float
        sums), independent of ``PYTHONHASHSEED``."""
        if self._columns is None:
            self.required_columns()
        return self._columns[1]

    def input_nominal_bytes(self, database: Database,
                            child_results: List[OperatorResult]) -> int:
        """Paper-scale input volume (drives compute cost and footprint).

        The default reads one materialised child whole — what every
        frame-to-frame operator does."""
        (child,) = child_results
        return max(child.nominal_bytes, TID_BYTES)

    def estimate(self, database: Database,
                 child_estimates: List[OpEstimate]) -> OpEstimate:
        """Compile-time sizes (no results yet) from the children's
        estimates; compile-time placement propagates these up the plan.

        The default preserves volume (Sort, Limit and friends)."""
        (child,) = child_estimates
        return OpEstimate(child.out_bytes, child.out_rows, child.out_bytes)

    def run(self, database: Database,
            child_results: List[OperatorResult]) -> OperatorResult:
        """Functional execution with numpy."""
        raise NotImplementedError

    def device_footprint_bytes(self, profile, database: Database,
                               child_results: List[OperatorResult]) -> int:
        """Device heap demand when executing on the co-processor.

        Defaults to the profile's per-kind factor over the input
        volume; operators with different working-memory shapes (hash
        joins) override this.
        """
        return profile.footprint_bytes(
            self.kind, self.input_nominal_bytes(database, child_results)
        )

    def state_key(self) -> Optional[Tuple]:
        """Stable tuple of every parameter that shapes :meth:`run`'s output.

        Subclasses whose functional result is fully determined by the
        database, their children, and these parameters override this;
        returning ``None`` (the default) opts the operator out of the
        cross-plan result cache — only the per-template memoisation via
        ``_cached_result`` applies then.
        """
        return None

    def fingerprint(self) -> Optional[Tuple]:
        """Structural identity of this subplan (or None).

        Two operators with equal fingerprints over the same database
        produce identical functional results, no matter which query —
        or which run — they belong to.  Cached on the instance; clones
        share it (a clone starts from the template's ``__dict__``).
        """
        cached = self._fingerprint
        if cached is not None:
            return cached if cached is not False else None
        key = self.state_key()
        if key is None:
            self._fingerprint = False
            return None
        child_prints = []
        for child in self.children:
            child_print = child.fingerprint()
            if child_print is None:
                self._fingerprint = False
                return None
            child_prints.append(child_print)
        fp = (type(self).__name__, key, tuple(child_prints))
        self._fingerprint = fp
        return fp

    def produce(self, database: Database,
                child_results: List[OperatorResult]) -> OperatorResult:
        """Run, or rebuild a fresh result from a memoised payload.

        Lookup order: the per-template memo (shared between a template
        plan and its clones), then the cross-plan fingerprint cache
        (shared between queries and runs on the same database).
        """
        cached = self._cached_result
        if cached is None:
            cached = plan_cache.lookup(database, self.fingerprint())
            if cached is not None:
                self._cached_result = cached
        if cached is not None:
            payload, actual_rows, nominal_rows, width = cached
            return OperatorResult(payload, actual_rows, nominal_rows, width)
        return self.record(database, self.run(database, child_results))

    def record(self, database: Database,
               result: OperatorResult) -> OperatorResult:
        """Memoise ``result`` as this operator's — in the template memo
        and the cross-plan cache — and hand it back: what
        :meth:`produce` does after ``run()``, and a fused run for every
        operator it covers."""
        cached = (
            result.payload,
            result.actual_rows,
            result.nominal_rows,
            result.row_width_bytes,
        )
        self._cached_result = cached
        plan_cache.store(database, self.fingerprint(), cached)
        return result

    # -- traversal --------------------------------------------------------

    def walk(self):
        """Yield the subtree in post order (children before parents)."""
        for child in self.children:
            for node in child.walk():
                yield node
        yield self


class PhysicalPlan:
    """A physical plan: a root operator plus metadata.

    The tree is fixed once the plan exists (``clone`` builds a new
    plan), so its shape is walked once: ``operators`` is every operator
    in post order, ``leaves`` the childless ones in the same order.
    """

    def __init__(self, root: PhysicalOperator, name: str = "query"):
        self.root = root
        self.name = name
        self.operators: Tuple[PhysicalOperator, ...] = tuple(root.walk())
        self.leaves: Tuple[PhysicalOperator, ...] = tuple(
            op for op in self.operators if not op.children
        )
        for op in self.operators:
            op.plan_name = name

    def required_columns(self) -> Set[str]:
        keys: Set[str] = set()
        for op in self.operators:
            keys |= op.required_columns()
        return keys

    def assign_all(self, processor_name: str) -> None:
        """Fix every operator's placement (compile-time strategies)."""
        for op in self.operators:
            op.placement = processor_name

    def explain(self) -> str:
        """Human-readable plan tree with placements and cached sizes.

        Placements show as ``?`` until a compile-time strategy assigned
        them (run-time strategies decide during execution).
        """
        lines = []

        def render(op: PhysicalOperator, indent: int) -> None:
            size = ""
            if op._cached_result is not None:
                _, actual_rows, nominal_rows, width = op._cached_result
                size = " rows={} nominal={}B".format(
                    actual_rows, nominal_rows * width
                )
            lines.append("{}{} [{} on {}]{}".format(
                "  " * indent, op.label, op.kind, op.placement or "?", size
            ))
            for child in op.children:
                render(child, indent + 1)

        render(self.root, 0)
        return "\n".join(lines)

    def clone(self) -> "PhysicalPlan":
        """Fresh operator instances for one execution.

        Placement and per-execution state are reset; immutable pieces
        (predicates, memoised result payloads, fingerprints and column
        keys) are shared.
        """
        def clone_tree(op: PhysicalOperator) -> PhysicalOperator:
            op.required_columns()  # memoise on the template, not per clone
            # a shallow copy: operators are plain-``__dict__`` objects
            # (no ``__slots__``, ``__copy__`` or ``__reduce__`` to honour)
            twin = object.__new__(type(op))
            twin.__dict__.update(op.__dict__)
            twin.op_id = next(_op_counter)
            twin.placement = None
            twin.children = [clone_tree(child) for child in op.children]
            return twin

        return PhysicalPlan(clone_tree(self.root), name=self.name)

    def __repr__(self) -> str:
        return "<PhysicalPlan {} ops={}>".format(self.name, len(self.operators))


def scaled_nominal_rows(actual_out: int, actual_in: int, nominal_in: int) -> int:
    """Scale an output cardinality from actual to nominal data size.

    Intermediate sizes at paper scale follow the selectivity observed on
    the reduced actual data.
    """
    if actual_in <= 0:
        return 0
    return int(round(actual_out / actual_in * nominal_in))
