"""Query chopping (Sec. 5).

Chopping is a progressive query optimizer: it chops the leaf operators
off submitted queries and inserts them into a global operator stream.
Each operator is placed on a processor *when it becomes ready* (all
children finished), then waits in that processor's ready queue until a
worker thread pulls it.  Finished operators notify their parents; a
parent whose children have all completed inserts itself into the
stream (Fig. 10/11).

The worker pools bound operator-level concurrency per processor —
operators allocate device memory only once a worker runs them, which is
what prevents heap contention (Sec. 5.2).

With the query-lifecycle layer on
(:mod:`repro.engine.execution.lifecycle`) the executor additionally
supports *cooperative cancellation* — a cancelled query's queued tasks
are skipped at pickup and its running operators are interrupted — and
*straggler hedging*: a watchdog re-enqueues a GPU-placed operator onto
the CPU pool once it exceeds ``hedge_factor`` times its HyPE estimate;
the first finisher wins and the loser is cancelled.  With the layer off
(``lifecycle=None``) every operator takes the plain path (zero
overhead), whatever context its query carries.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.engine.execution.context import (ExecutionContext,
                                            place_operator, queue_estimate)
from repro.engine.execution.lease import deliver_to_host
from repro.engine.execution.lifecycle import (
    HEDGE_MIN_SECONDS,
    QueryCancelled,
    QueryContext,
)
from repro.engine.execution.operator_task import execute_operator
from repro.engine.operators import PhysicalOperator, PhysicalPlan
from repro.sim import Event, Interrupted, Store


class _Task:
    """One operator instance traveling through the operator stream."""

    __slots__ = (
        "op",
        "parent",
        "child_index",
        "pending",
        "child_results",
        "root_event",
        "estimate",
        "input_bytes",
        "qctx",
        "race",
        "ctx",
    )

    def __init__(self, op: PhysicalOperator, qctx: QueryContext,
                 ctx: ExecutionContext):
        self.op = op
        self.parent: Optional[_Task] = None
        self.child_index = 0
        self.pending = len(op.children)
        self.child_results: List = [None] * len(op.children)
        self.root_event: Optional[Event] = None
        self.estimate = 0.0
        #: the operator's input size, from placement
        self.input_bytes = 0
        self.qctx = qctx
        self.race: Optional[_HedgeRace] = None
        #: the executor's shared context, or the query's own (service
        #: mode pins a query to its snapshot epoch)
        self.ctx = ctx


class _HedgeRace:
    """Shared state of one hedged operator: primary vs. CPU copy.

    The same :class:`_Task` object is enqueued on both pools; whichever
    worker finishes first flips ``done``, interrupts the rival, and
    performs the (single) parent notification.
    """

    __slots__ = (
        "primary", "estimates", "procs", "done", "winner", "hedged",
        "watchdog",
    )

    def __init__(self, primary: str, primary_estimate: float):
        #: processor name of the original placement
        self.primary = primary
        #: per-processor HyPE estimates (for load-tracker bookkeeping)
        self.estimates = {primary: primary_estimate}
        #: per-processor operator processes
        self.procs: Dict[str, object] = {}
        self.done = False
        self.winner: Optional[str] = None
        #: True once the watchdog actually dispatched the CPU copy
        self.hedged = False
        self.watchdog = None


def check_pool_arguments(*workers: int) -> None:
    """Reject worker counts the executor cannot run (``run_workload``
    asks before it builds a platform)."""
    if min(workers) < 1:
        raise ValueError("worker pools need at least one thread")


class ChoppingExecutor:
    """Thread-pool execution engine with run-time placement."""

    def __init__(self, ctx: ExecutionContext, strategy,
                 cpu_workers: int = 4, gpu_workers: int = 2,
                 lifecycle=None):
        check_pool_arguments(cpu_workers, gpu_workers)
        self.ctx = ctx
        self.strategy = strategy
        self.cpu_workers = cpu_workers
        self.gpu_workers = gpu_workers
        #: query-lifecycle config (hedging knobs); None = layer off
        self.lifecycle = lifecycle
        self._hedging = lifecycle is not None and lifecycle.hedging_enabled
        env = ctx.env
        #: per-processor FIFO ready queues fed by the global operator
        #: stream (one queue and one worker pool per co-processor)
        self.ready: Dict[str, Store] = {"cpu": Store(env)}
        for _ in range(cpu_workers):
            env.process(self._worker("cpu"))
        for name in ctx.hardware.gpu_names:
            self.ready[name] = Store(env)
            for _ in range(gpu_workers):
                env.process(self._worker(name))

    # -- query submission -------------------------------------------------

    def submit(self, plan: PhysicalPlan,
               qctx: Optional[QueryContext] = None,
               ctx: Optional[ExecutionContext] = None) -> Event:
        """Chop ``plan`` into the operator stream.

        Returns an event that fires with the root
        :class:`~repro.engine.intermediates.OperatorResult` once the
        query completes, or *fails* with :class:`QueryCancelled` once
        its ``qctx`` (a blank one when omitted) is cancelled.  A ``ctx``
        pins every operator of this plan to another execution context
        (service mode's epoch snapshots); the override must share the
        executor's hardware and load tracker.
        """
        if qctx is None:
            qctx = QueryContext(self.ctx.env, plan.name)
        root_event = self.ctx.env.event()
        ctx = self.ctx if ctx is None else ctx
        tasks: Dict[int, _Task] = {}
        for op in plan.operators:  # post order
            task = _Task(op, qctx, ctx)
            tasks[op.op_id] = task
            for index, child in enumerate(op.children):
                child_task = tasks[child.op_id]
                child_task.parent = task
                child_task.child_index = index
        tasks[plan.root.op_id].root_event = root_event
        qctx.attach_root(root_event)
        # Leaves have no dependencies: they enter the stream immediately.
        for op in plan.leaves:
            self._dispatch(tasks[op.op_id])
        return root_event

    # -- scheduling ---------------------------------------------------------

    def _dispatch(self, task: _Task) -> None:
        """Place a ready operator and enqueue it (HyPE's tactical step)."""
        if task.qctx.cancelled:
            # the query died before this operator became ready
            self._release_children(task)
            return
        name, task.estimate, task.input_bytes = place_operator(
            task.ctx, self.strategy, task.op, task.child_results, task.qctx)
        self.ready[name].put(task)

    def _worker(self, name: str) -> Generator:
        """One worker thread: pull, execute, notify the parent."""
        while True:
            task = yield self.ready[name].get()
            ctx = task.ctx
            if self.lifecycle is None:
                # Plain path — identical to the executor without the
                # lifecycle layer (the zero-overhead guarantee).
                result = yield from execute_operator(
                    ctx,
                    task.op,
                    task.child_results,
                    name,
                    admit_to_cache=self.strategy.admit_to_cache,
                    qctx=task.qctx,
                    input_bytes=task.input_bytes,
                )
                ctx.load.finish(name, task.estimate)
                yield from self._complete(task, result)
                continue
            yield from self._run_supervised(task, name)

    def _run_supervised(self, task: _Task, name: str) -> Generator:
        """Run one cancellable (and possibly hedged) operator.

        The operator becomes its own DES process registered with the
        query context, so a cancel can interrupt it mid-execution; the
        worker joins it and performs bookkeeping and completion.
        """
        ctx = task.ctx
        qctx = task.qctx
        race = task.race
        estimate = (race.estimates.get(name, task.estimate)
                    if race is not None else task.estimate)
        if qctx.cancelled:
            # skipped at pickup: the query died while the task queued
            ctx.load.finish(name, estimate)
            ctx.metrics.count("cancelled_task_skips")
            self._release_children(task)
            return
        if race is not None and race.done:
            # the rival finished while this copy sat in the queue
            ctx.load.finish(name, estimate)
            return
        if race is None and self._hedging and name != "cpu" \
                and not task.op.cpu_only:
            race = _HedgeRace(name, task.estimate)
            task.race = race
            race.watchdog = ctx.env.process(self._hedge_watchdog(task))
            race.watchdog.defused = True
        proc = ctx.env.process(execute_operator(
            ctx, task.op, task.child_results, name,
            admit_to_cache=self.strategy.admit_to_cache, qctx=qctx,
            input_bytes=task.input_bytes,
        ))
        proc.defused = True
        qctx.register(proc)
        if race is not None:
            race.procs[name] = proc
        started = ctx.env.now
        try:
            result = yield proc
        except (Interrupted, QueryCancelled):
            result = None
        ctx.load.finish(name, estimate)
        if race is not None:
            if race.done:
                # lost the race: the winner already notified the parent;
                # everything this copy executed was hedging's wasted work
                if race.hedged:
                    ctx.metrics.count("hedge_wasted_seconds",
                                      ctx.env.now - started)
                if result is not None:
                    result.release_device_memory()
                return
            if result is not None:
                race.done = True
                race.winner = name
                if race.watchdog is not None and race.watchdog.is_alive:
                    race.watchdog.interrupt()
                for rival_name, rival in race.procs.items():
                    if rival_name != name and rival.is_alive:
                        rival.defused = True
                        rival.interrupt(QueryCancelled(
                            task.op.plan_name or "?", "hedged"
                        ))
                if race.hedged:
                    # won: the CPU copy finished before the original
                    ctx.metrics.count("hedge_races",
                                      won=name != race.primary)
        if result is None:
            # interrupted mid-flight; the operator rolled its own device
            # state back, this task's staged inputs go with it
            if qctx.cancelled:
                self._release_children(task)
            return
        yield from self._complete(task, result)

    def _hedge_watchdog(self, task: _Task) -> Generator:
        """Hedge ``task`` onto the CPU pool once the primary straggles.

        Sleeps ``hedge_factor`` times the primary's HyPE estimate; if
        the operator is still running then (heap-contention stall,
        fault-induced retry storm), the same task is enqueued on the
        CPU ready queue and the two copies race.
        """
        lifecycle = self.lifecycle
        race = task.race
        wait = max(task.estimate, HEDGE_MIN_SECONDS) \
            * lifecycle.hedge_factor
        try:
            yield self.ctx.env.timeout(wait)
        except Interrupted:
            return
        if race.done or task.qctx.cancelled:
            return
        race.hedged = True
        # a task context shares the executor's load tracker
        cpu_estimate = queue_estimate(task.ctx, task.op, "cpu",
                                      task.input_bytes)
        race.estimates["cpu"] = cpu_estimate
        self.ctx.metrics.count("hedges_started")
        self.ready["cpu"].put(task)

    def _complete(self, task: _Task, result) -> Generator:
        """Return the root result (d2h) or notify the parent task."""
        ctx = task.ctx
        parent = task.parent
        if parent is None:
            root_event = task.root_event
            if root_event.triggered:
                # cancelled while the final operator was finishing
                result.release_device_memory()
                return
            yield from deliver_to_host(ctx, result)
            if root_event.triggered:  # cancelled during the d2h
                return
            root_event.succeed(result)
            return
        parent.child_results[task.child_index] = result
        parent.pending -= 1
        if parent.pending == 0:
            self._dispatch(parent)

    @staticmethod
    def _release_children(task: _Task) -> None:
        for child in task.child_results:
            if child is not None:
                child.release_device_memory()
