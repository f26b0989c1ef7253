"""Retry, backoff, and per-device circuit breakers.

The paper's abort-and-restart protocol (Sec. 2.5.1) handles exactly one
fault: a failed heap allocation, which is *permanent for this attempt*
— retrying immediately would fail again, so the operator restarts on
the CPU at once.  The injected faults of :mod:`repro.faults` are
*transient*: a PCIe hiccup or a rejected kernel launch may well succeed
a simulated millisecond later.  Falling back to the CPU on the first
transient fault would throw away the co-processor exactly when the
paper's thesis says robustness matters, so the executors layer two
standard mechanisms on top of the abort protocol:

* **Bounded retry with exponential backoff** (in *simulated* time): a
  transient fault re-runs the attempt after
  ``base * multiplier**attempt`` seconds, up to ``max_retries`` times,
  then falls back to the CPU like any abort.
* **A per-device circuit breaker**: ``threshold`` consecutive transient
  failures open the breaker; while open, placement and execution route
  around the device (CPU-only degradation).  After ``open_seconds`` the
  breaker half-opens and admits a bounded number of *probe* attempts —
  a probe success closes it, a probe failure re-opens it.

Genuine :class:`~repro.hardware.errors.DeviceOutOfMemory` aborts never
count against a breaker: a full heap is the *allocator working as
specified* under contention (the paper's core effect), not flakiness.

Both mechanisms live in one loop, :meth:`ResilienceManager.attempts`,
which every executor's device attempt runs under; an attempt that dies
books its wasted time through :func:`account_abort`.

With no fault config installed the manager is inert: ``admit`` and
``available`` answer True without touching any state, the recording
hooks return immediately, and simulated timings are byte-identical to
a build without this module.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Generator, Optional

from repro.hardware.errors import DeviceFault


class BreakerState(enum.Enum):
    """Classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Exponential retry backoff: base * multiplier**attempt simulated
#: seconds.
BACKOFF_BASE_SECONDS = 0.002
BACKOFF_MULTIPLIER = 2.0


class RetryPolicy:
    """Bounded retries with exponential backoff in simulated time."""

    def __init__(self, max_retries: int = 3,
                 base_seconds: float = BACKOFF_BASE_SECONDS,
                 multiplier: float = BACKOFF_MULTIPLIER):
        self.max_retries = int(max_retries)
        self.base_seconds = float(base_seconds)
        self.multiplier = float(multiplier)

    def backoff_seconds(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        return self.base_seconds * (self.multiplier ** attempt)


class CircuitBreaker:
    """Failure-rate gate for one device.

    Time is the caller's simulated clock (passed into every method), so
    the breaker works identically under any event ordering.
    """

    def __init__(self, device: str, threshold: int = 3,
                 open_seconds: float = 0.25, probes: int = 1,
                 on_transition: Optional[Callable] = None):
        self.device = device
        self.threshold = int(threshold)
        self.open_seconds = float(open_seconds)
        self.probes = int(probes)
        self.on_transition = on_transition
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        #: accumulated seconds of *completed* OPEN episodes
        self.open_seconds_total = 0.0
        self._probe_budget = 0

    def _transition(self, new_state: BreakerState, now: float) -> None:
        old = self.state
        if old is BreakerState.OPEN and new_state is not BreakerState.OPEN:
            self.open_seconds_total += now - self.opened_at
        self.state = new_state
        if self.on_transition is not None:
            self.on_transition(self.device, old.value, new_state.value, now)

    def open_elapsed_seconds(self, now: float) -> float:
        """Total simulated time this breaker has spent OPEN so far."""
        elapsed = self.open_seconds_total
        if self.state is BreakerState.OPEN:
            elapsed += now - self.opened_at
        return elapsed

    def _maybe_half_open(self, now: float) -> None:
        if (self.state is BreakerState.OPEN
                and now >= self.opened_at + self.open_seconds):
            self._probe_budget = self.probes
            self._transition(BreakerState.HALF_OPEN, now)

    # -- queries ---------------------------------------------------------

    def available(self, now: float) -> bool:
        """Whether placement should consider this device at all."""
        self._maybe_half_open(now)
        return self.state is not BreakerState.OPEN

    # -- the executors call these -----------------------------------------

    def admit(self, now: float) -> bool:
        """Whether an execution attempt may start now.

        Half-open admits at most ``probes`` attempts (the recovery
        probes); their outcomes decide whether the breaker closes or
        re-opens.
        """
        self._maybe_half_open(now)
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            return False
        if self._probe_budget > 0:
            self._probe_budget -= 1
            return True
        return False

    def record_success(self, now: float) -> None:
        """An admitted attempt finished without a transient fault.

        A genuine out-of-memory abort also lands here: the allocator
        responded as specified, so the device is not flaky.
        """
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        """An admitted attempt died of a transient fault."""
        if self.state is BreakerState.HALF_OPEN:
            # a failed recovery probe re-opens immediately
            self.opened_at = now
            self.consecutive_failures = 0
            self._transition(BreakerState.OPEN, now)
            return
        self.consecutive_failures += 1
        if (self.state is BreakerState.CLOSED
                and self.consecutive_failures >= self.threshold):
            self.opened_at = now
            self.consecutive_failures = 0
            self._transition(BreakerState.OPEN, now)


class ResilienceManager:
    """Retry policy plus one lazy circuit breaker per device.

    Built from the run's :class:`~repro.faults.FaultConfig`; with
    ``config=None`` (faults off) every query answers "go ahead" without
    creating any state — the zero-overhead-when-disabled path.
    """

    def __init__(self, config=None, metrics=None):
        self.config = config
        self.metrics = metrics
        self._breakers: Dict[str, CircuitBreaker] = {}
        if config is not None:
            self.policy = RetryPolicy(max_retries=config.max_retries)
        else:
            self.policy = RetryPolicy()

    @property
    def enabled(self) -> bool:
        return self.config is not None

    def breaker(self, device: str) -> CircuitBreaker:
        breaker = self._breakers.get(device)
        if breaker is None:
            config = self.config
            on_transition = (
                self.metrics.record_breaker_transition
                if self.metrics is not None else None
            )
            breaker = CircuitBreaker(
                device,
                threshold=config.breaker_threshold if config else 3,
                open_seconds=config.breaker_open_seconds if config else 0.25,
                probes=config.breaker_probes if config else 1,
                on_transition=on_transition,
            )
            self._breakers[device] = breaker
        return breaker

    def breaker_states(self) -> Dict[str, str]:
        """Current state per device (devices never attempted omitted)."""
        return {name: b.state.value for name, b in self._breakers.items()}

    def breaker_open_seconds(self, now: float) -> Dict[str, float]:
        """Time-spent-open per device (live view at time ``now``)."""
        return {
            name: breaker.open_elapsed_seconds(now)
            for name, breaker in self._breakers.items()
        }

    # -- placement hooks ---------------------------------------------------

    def available(self, device: str, now: float) -> bool:
        """Placement filter: False while the device's breaker is open."""
        if self.config is None:
            return True
        return self.breaker(device).available(now)

    def placement_penalty(self, device: str, now: float) -> float:
        """Additive cost-estimate penalty: infinite while open, zero
        otherwise (half-open devices stay attractive so probes run)."""
        if self.config is None:
            return 0.0
        return 0.0 if self.breaker(device).available(now) else float("inf")

    # -- execution hooks -----------------------------------------------------

    def admit(self, device: str, now: float) -> bool:
        if self.config is None:
            return True
        return self.breaker(device).admit(now)

    def record_success(self, device: str, now: float) -> None:
        if self.config is None:
            return
        self.breaker(device).record_success(now)

    def record_failure(self, device: str, now: float) -> None:
        if self.config is None:
            return
        self.breaker(device).record_failure(now)

    def attempts(self, env, device: str,
                 attempt_once: Callable[[], Generator],
                 plan_name: Optional[str], qctx) -> Generator:
        """DES generator: run device attempts until one settles.

        ``attempt_once()`` starts one attempt — a generator returning
        the result, or the :class:`DeviceFault` it aborted with after
        rolling the device back and booking the abort
        (:func:`account_abort`).  Returns the result on success, or None
        once the work must restart on the CPU: after a genuine
        out-of-memory abort (retrying a full heap is pointless,
        Sec. 2.5.1), after exhausting the transient-fault retry budget,
        or when the device's breaker denies the attempt outright.
        """
        attempt = 0
        while True:
            if not self.admit(device, env.now):
                self.metrics.count("breaker_skips", device=device)
                return None
            outcome = yield from attempt_once()
            if not isinstance(outcome, DeviceFault):
                # success, or a non-fault abort — either way the device
                # itself behaved, so the breaker sees a success
                self.record_success(device, env.now)
                return outcome
            if not outcome.transient:
                # out of memory: the allocator answered as specified
                # under contention — fall back immediately, breaker
                # unaffected
                self.record_success(device, env.now)
                return None
            self.record_failure(device, env.now)
            if attempt >= self.policy.max_retries:
                return None
            self.metrics.record_retry(device=device,
                                      fault=outcome.fault_class,
                                      query=plan_name,
                                      tenant=qctx.tenant)
            # a cancelled query's backoff aborts early instead of
            # retrying
            yield from self.backoff(env, attempt, qctx)
            attempt += 1

    def backoff(self, env, attempt: int, qctx):
        """DES generator: sleep one retry backoff, honouring cancellation.

        A query cancelled while its operator sleeps between attempts
        must not start the next attempt — the backoff aborts early by
        raising :class:`~repro.engine.execution.lifecycle.QueryCancelled`
        on wake-up (an interrupt mid-sleep surfaces on its own).
        """
        yield env.timeout(self.policy.backoff_seconds(attempt))
        qctx.check()


def account_abort(ctx, op, device: str, fault: DeviceFault, start: float,
                  qctx) -> float:
    """Book one aborted device attempt of ``op``: the time since
    ``start`` is wasted (the paper's metric, Sec. 2.5.1), attributed to
    the query, the faulting device, the fault class and the owning
    tenant, and shown on the trace as an aborted span of ``device``.
    Returns the wasted seconds."""
    now = ctx.env.now
    wasted = now - start
    ctx.metrics.record_abort(wasted, query=op.plan_name,
                             device=fault.device or device,
                             fault=fault.fault_class,
                             tenant=qctx.tenant)
    if ctx.trace is not None:
        ctx.trace.record(op.label, op.kind, device, op.plan_name,
                         start, now, aborted=True, fault=fault.fault_class)
    return wasted


__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "ResilienceManager",
    "RetryPolicy",
    "account_abort",
]
