"""Query-lifecycle robustness: admission control and deadlines.

The paper bounds *operator*-level parallelism (query chopping,
Sec. 5.2) so the system degrades gracefully instead of thrashing, but
the stream of *queries* itself is accepted unbounded and, once a query
is in flight, nothing can stop it.  Production co-processor engines
treat overload and tail latency as first-class concerns; this module
adds the corresponding query-level layer on top of the operator-level
resilience of :mod:`repro.engine.execution.resilience`:

* :class:`AdmissionController` — a gate in front of the executors with
  a configurable in-flight query limit.  Excess queries *queue* (FIFO,
  woken as slots free up), are *shed* (rejected outright), or are
  *degraded to the CPU* (admitted but barred from the co-processors),
  per the configured policy.
* :class:`QueryContext` — per-query deadline/cancel state threaded
  through the executors.  Cancellation is *cooperative and true*: the
  context interrupts every registered DES process (the kernel throws
  :class:`~repro.sim.Interrupted` at the current simulated time),
  pending operator tasks are skipped at pickup, in-flight retry
  backoffs abort early, and device-heap allocations plus cache pins
  roll back through the operator abort protocol — leaving the system
  in a state where subsequent queries produce byte-identical results.
* :func:`deadline_watchdog` — a DES process that cancels a query once
  its deadline elapses.

Every query carries a :class:`QueryContext`.  With ``lifecycle=None``
(or every feature off) it has nothing enabled — no watchdog, a gate
that always admits, no extra DES event — so simulated timings are
byte-identical to a build without this module (its host cost per
query is measured in docs/robustness.md).  Whether the chopping
executor supervises operators is its own lifecycle config's choice.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Generator, List, Optional

from repro.faults import coerce_spec, parse_spec
from repro.sim import Event

#: Admission policies for queries arriving beyond the in-flight limit.
OVERLOAD_POLICIES = ("queue", "shed", "degrade-to-cpu")


class QueryCancelled(Exception):
    """A query was cancelled (deadline or explicit)."""

    def __init__(self, query: str = "?", reason: str = "cancelled"):
        super().__init__("{}: {}".format(query, reason))
        self.query = query
        self.reason = reason


@dataclass(frozen=True)
class LifecycleConfig:
    """Overload / deadline knobs for one workload run.

    Every feature defaults to *off*; a default-constructed config is
    equivalent to ``lifecycle=None`` (the zero-overhead path).
    """

    #: maximum queries in flight at once (None = unlimited)
    max_inflight: Optional[int] = None
    #: what happens to a query arriving beyond the limit
    overload_policy: str = "queue"
    #: per-query deadline in simulated seconds (None = no deadline)
    deadline_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(
                "overload_policy must be one of {}".format(OVERLOAD_POLICIES)
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")

    # -- feature queries ------------------------------------------------

    @property
    def admission_enabled(self) -> bool:
        return self.max_inflight is not None

    @property
    def deadlines_enabled(self) -> bool:
        return self.deadline_seconds is not None

    @property
    def enabled(self) -> bool:
        """Any feature on?  False means the zero-overhead path."""
        return self.admission_enabled or self.deadlines_enabled

    # -- constructors ---------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "LifecycleConfig":
        """Parse a spec string, e.g. ``"max_inflight=4,policy=shed"``.

        Accepted keys are the field names plus the short aliases
        ``policy`` (overload_policy) and ``deadline`` (deadline_seconds).
        """
        return parse_spec(cls, spec, "lifecycle", aliases={
            "policy": "overload_policy",
            "deadline": "deadline_seconds",
        })

    @classmethod
    def coerce(cls, value) -> Optional["LifecycleConfig"]:
        """None / spec string / config -> config or None (disabled)."""
        return coerce_spec(cls, value)


class QueryContext:
    """Deadline/cancel state for one in-flight query.

    Executors *register* the DES processes working for the query and
    *track* the device-resident results it accumulates; :meth:`cancel`
    interrupts the former and releases the latter, then a drain process
    waits for every interrupted worker to settle and records the
    cancel latency (cancel request to fully stopped).
    """

    __slots__ = (
        "env", "name", "user", "metrics", "deadline_seconds",
        "started_at", "finished", "cancelled", "cancel_reason",
        "cancelled_at", "force_cpu", "tenant", "slo_class",
        "watchdog", "_procs", "_roots", "_results", "_callbacks",
    )

    def __init__(self, env, name: str, user: int = 0, metrics=None,
                 deadline_seconds: Optional[float] = None,
                 tenant: Optional[str] = None,
                 slo_class: Optional[str] = None):
        self.env = env
        self.name = name
        self.user = user
        self.metrics = metrics
        self.deadline_seconds = deadline_seconds
        #: service-mode attribution: owning tenant and its SLO class
        self.tenant = tenant
        self.slo_class = slo_class
        self.started_at = env.now
        self.finished = False
        self.cancelled = False
        self.cancel_reason: Optional[str] = None
        self.cancelled_at = 0.0
        #: admission degraded this query: placement must stay on the CPU
        self.force_cpu = False
        #: the :func:`deadline_watchdog` process (None without a deadline)
        self.watchdog = None
        self._procs: List = []
        self._roots: List[Event] = []
        self._results: List = []
        self._callbacks: List[Callable[["QueryContext"], None]] = []

    # -- registration ---------------------------------------------------

    def register(self, process) -> None:
        """A DES process now works for this query (interrupt on cancel;
        :meth:`cancel` skips the ones that finished meanwhile)."""
        self._procs.append(process)

    def attach_root(self, event: Event) -> None:
        """The query's completion event (failed with QueryCancelled)."""
        self._roots.append(event)

    def track(self, result) -> None:
        """A (possibly device-resident) result this query produced."""
        self._results.append(result)

    def on_cancel(self, callback: Callable[["QueryContext"], None]) -> None:
        """Run ``callback(qctx)`` first thing when the query is cancelled."""
        self._callbacks.append(callback)

    def labels(self) -> dict:
        """What an event of this query is booked under: its name and,
        in service mode, the owning tenant and SLO class."""
        return {"query": self.name, "tenant": self.tenant,
                "slo_class": self.slo_class}

    # -- cooperative checkpoints ---------------------------------------

    def check(self) -> None:
        """Raise :class:`QueryCancelled` if the query was cancelled."""
        if self.cancelled:
            raise QueryCancelled(self.name, self.cancel_reason or "cancelled")

    def finish(self) -> None:
        """The query is over: its watchdog stops, firings are no-ops."""
        self.finished = True
        self._results = []
        self._procs = []
        if self.watchdog is not None and self.watchdog.is_alive:
            self.watchdog.interrupt()

    # -- cancellation ---------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> bool:
        """Cancel the query; returns False if already finished/cancelled.

        Synchronously: fail the root event(s), run the registered
        cancel callbacks (admission waiters), release every tracked
        device-resident result, and interrupt every registered process.
        Asynchronously: a drain process joins the interrupted workers —
        each rolls its device state back through the operator abort
        protocol — and records the cancel latency once all settled.
        """
        if self.finished or self.cancelled:
            return False
        self.cancelled = True
        self.cancel_reason = reason
        self.cancelled_at = self.env.now
        error = QueryCancelled(self.name, reason)
        for callback in self._callbacks:
            callback(self)
        for root in self._roots:
            if not root.triggered:
                root.fail(error)
        for result in self._results:
            result.release_device_memory()
        self._results = []
        active = self.env.active_process
        procs = [p for p in self._procs if p.is_alive and p is not active]
        for process in procs:
            # the interrupt is the consumer of the process's failure
            process.defused = True
            process.interrupt(error)
        self.env.process(self._drain(procs))
        return True

    def _drain(self, procs) -> Generator:
        """Join the interrupted workers, then record the cancel latency."""
        for process in procs:
            if process.is_alive or not process.processed:
                try:
                    yield process
                except Exception:
                    pass
        if self.metrics is not None:
            self.metrics.count("cancels")
            self.metrics.count("cancel_seconds",
                               self.env.now - self.cancelled_at)


class AdmissionController:
    """In-flight query gate with an overload policy.

    ``admit`` is a generator (``yield from`` it inside a session): it
    returns one of ``"run"`` (slot acquired), ``"degrade"`` (slot
    acquired, co-processors barred), ``"shed"`` (rejected, no slot), or
    ``"cancelled"`` (the query's deadline fired while queued).  Every
    ``"run"``/``"degrade"`` admission must be paired with one
    :meth:`release`.
    """

    def __init__(self, env, config: LifecycleConfig, metrics):
        self.env = env
        self.config = config
        self.metrics = metrics
        self.inflight = 0
        self._waiters: Deque[Event] = deque()

    # -- capacity -------------------------------------------------------

    def has_capacity(self) -> bool:
        limit = self.config.max_inflight
        return limit is None or self.inflight < limit

    # -- admission ------------------------------------------------------

    def admit(self, qctx: QueryContext) -> Generator:
        if qctx.cancelled:
            return "cancelled"
        if self.has_capacity():
            self.inflight += 1
            return "run"
        policy = self.config.overload_policy
        if policy == "shed":
            self.metrics.count("sheds", **qctx.labels())
            return "shed"
        if policy == "degrade-to-cpu":
            self.inflight += 1
            self.metrics.count("degraded", **qctx.labels())
            return "degrade"
        # queue: FIFO backpressure
        waiter = self.env.event()
        self._waiters.append(waiter)
        qctx.on_cancel(lambda _qctx, w=waiter: self._cancel_waiter(w))
        self.metrics.record_admission_queue_depth(len(self._waiters))
        started = self.env.now
        try:
            yield waiter
        except QueryCancelled:
            self._drop_waiter(waiter)
            return "cancelled"
        self.metrics.count("admission_waits")
        self.metrics.count("admission_wait_seconds",
                           self.env.now - started)
        # the slot was reserved by release() when it woke this waiter
        return "run"

    def release(self) -> None:
        """One admitted query finished (or was cancelled): free its slot
        and wake the first still-live queued waiter if capacity allows."""
        self.inflight -= 1
        while self._waiters:
            if not self.has_capacity():
                return
            waiter = self._waiters.popleft()
            if waiter.triggered:
                continue  # cancelled while queued
            self.inflight += 1
            waiter.succeed()
            return

    @property
    def queue_depth(self) -> int:
        return sum(1 for w in self._waiters if not w.triggered)

    # -- internals ------------------------------------------------------

    def _cancel_waiter(self, waiter: Event) -> None:
        if not waiter.triggered:
            waiter.fail(QueryCancelled("?", "deadline"))

    def _drop_waiter(self, waiter: Event) -> None:
        try:
            self._waiters.remove(waiter)
        except ValueError:
            pass


def deadline_watchdog(qctx: QueryContext) -> Generator:
    """DES process: cancel ``qctx`` once its deadline elapses."""
    yield qctx.env.timeout(qctx.deadline_seconds)
    if qctx.finished or qctx.cancelled:
        return
    if qctx.metrics is not None:
        qctx.metrics.count("deadline_misses", query=qctx.name)
    qctx.cancel("deadline")


__all__ = [
    "AdmissionController",
    "LifecycleConfig",
    "OVERLOAD_POLICIES",
    "QueryCancelled",
    "QueryContext",
    "deadline_watchdog",
]
