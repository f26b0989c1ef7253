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
supports *cooperative cancellation*: a cancelled query's queued tasks
are skipped at pickup and its running operators are interrupted.  With
the layer off (``supervised=False``) every operator takes the plain path
(zero overhead), whatever context its query carries.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.engine.execution.context import ExecutionContext, place_operator
from repro.engine.execution.lease import deliver_to_host
from repro.engine.execution.lifecycle import QueryCancelled, QueryContext
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
        #: the executor's shared context, or the query's own (service
        #: mode pins a query to its snapshot epoch)
        self.ctx = ctx


def check_pool_arguments(*workers: int) -> None:
    """Reject worker counts the executor cannot run (``run_workload``
    asks before it builds a platform)."""
    if min(workers) < 1:
        raise ValueError("worker pools need at least one thread")


class ChoppingExecutor:
    """Thread-pool execution engine with run-time placement."""

    def __init__(self, ctx: ExecutionContext, strategy,
                 cpu_workers: int = 4, gpu_workers: int = 2,
                 supervised: bool = False):
        check_pool_arguments(cpu_workers, gpu_workers)
        self.ctx = ctx
        self.strategy = strategy
        self.cpu_workers = cpu_workers
        self.gpu_workers = gpu_workers
        #: the query-lifecycle layer is on: operators are cancellable
        self.supervised = supervised
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
            if not self.supervised:
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
        """Run one cancellable operator.

        The operator becomes its own DES process registered with the
        query context, so a cancel can interrupt it mid-execution; the
        worker joins it and performs bookkeeping and completion.
        """
        ctx = task.ctx
        qctx = task.qctx
        if qctx.cancelled:
            # skipped at pickup: the query died while the task queued
            ctx.load.finish(name, task.estimate)
            ctx.metrics.count("cancelled_task_skips")
            self._release_children(task)
            return
        proc = ctx.env.process(execute_operator(
            ctx, task.op, task.child_results, name,
            admit_to_cache=self.strategy.admit_to_cache, qctx=qctx,
            input_bytes=task.input_bytes,
        ))
        proc.defused = True
        qctx.register(proc)
        try:
            result = yield proc
        except (Interrupted, QueryCancelled):
            result = None
        ctx.load.finish(name, task.estimate)
        if result is None:
            # interrupted mid-flight; the operator rolled its own device
            # state back, this task's staged inputs go with it
            if qctx.cancelled:
                self._release_children(task)
            return
        yield from self._complete(task, result)

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
