"""The DES event loop and virtual clock."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, List, Optional, Tuple

from repro.sim.events import (
    AllOf,
    Event,
    PRIORITY_NORMAL,
    Process,
    Timeout,
)


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class Environment:
    """A deterministic single-threaded discrete-event environment.

    Time is a ``float`` in seconds.  Events scheduled for the same
    instant are processed in (priority, insertion order), which makes
    runs exactly reproducible.
    """

    __slots__ = ("now", "_queue", "_eid", "_active_process")

    def __init__(self, initial_time: float = 0.0):
        #: the current virtual time in seconds (only the loop sets it)
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event construction helpers ----------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` virtual seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start ``generator`` as a new process."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Event that succeeds once all ``events`` succeed."""
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------

    def schedule(self, event: Event, priority: int = PRIORITY_NORMAL,
                 delay: float = 0.0) -> None:
        """Queue ``event`` to be processed ``delay`` seconds from now."""
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self.now + delay, priority, eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the next scheduled event."""
        queue = self._queue
        if not queue:
            raise EmptySchedule()
        when, _, _, event = heappop(queue)
        self.now = when
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            # An error nobody waited for: escalate so bugs do not pass
            # silently.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue is empty or the clock reaches ``until``."""
        if until is not None and until < self.now:
            raise ValueError("cannot run backwards in time")
        queue = self._queue
        if until is None:
            # Hot path: inline step() without the per-iteration bound
            # check (the common full-drain call of the harness).
            while queue:
                when, _, _, event = heappop(queue)
                self.now = when
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    raise event._value
            return
        while queue:
            if queue[0][0] > until:
                self.now = until
                return
            self.step()
        self.now = until
