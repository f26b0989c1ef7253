"""Event primitives for the DES kernel.

Events are one-shot: they move from *pending* to *triggered* (a value or
an exception is attached and the event is scheduled) to *processed*
(callbacks have run).  Processes wait on events by yielding them.

The classes here sit on the simulator's hottest path — every simulated
operator, transfer, and queue interaction allocates a handful of them —
so they declare ``__slots__`` and keep ``__init__`` minimal.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional

#: Scheduling priorities.  Lower values are processed first at equal time.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Interrupted(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on.

    An event is created pending.  Calling :meth:`succeed` or
    :meth:`fail` triggers it, which schedules it on the environment's
    event queue; when the environment processes it, all registered
    callbacks run.  Waiting processes register themselves as callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):  # noqa: F821 - circular import
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        #: True once a waiter consumed the failure (prevents the
        #: environment from escalating an unhandled error).
        self.defused = False

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        if self.processed:
            state += ",processed"
        return "<{} {}>".format(type(self).__name__, state)

    @property
    def triggered(self) -> bool:
        """True once a value or an exception has been attached."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError("event is not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value (or exception) attached to the event."""
        if self._ok is None:
            raise RuntimeError("event is not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._ok is not None:
            raise RuntimeError("event {!r} already triggered".format(self))
        self._ok = True
        self._value = value
        self.env.schedule(self, PRIORITY_NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._ok is not None:
            raise RuntimeError("event {!r} already triggered".format(self))
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self, PRIORITY_NORMAL)
        return self


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError("negative delay {}".format(delay))
        # Inlined Event.__init__ plus immediate scheduling: timeouts are
        # the single most frequent event of the simulation.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay
        env.schedule(self, PRIORITY_NORMAL, delay)


class Initialize(Event):
    """Immediate event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):  # noqa: F821
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self.defused = False
        env.schedule(self, PRIORITY_URGENT)


class Process(Event):
    """A running generator.  Itself an event: it triggers when the
    generator returns (successfully, with the return value) or raises.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):  # noqa: F821
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError("Process requires a generator, got {!r}".format(generator))
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = None
        self.defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time."""
        if not self.is_alive:
            raise RuntimeError("cannot interrupt a finished process")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        # Detach from the event currently waited on, then resume with
        # a failed one-shot event carrying the interrupt.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            if not target.callbacks:
                # The abandoned event has no waiter left; if it later
                # fails (an injected fault, a stall timer) nobody will
                # consume the failure, so it must not escalate.
                target.defused = True
        wakeup = Event(self.env)
        wakeup.defused = True
        wakeup.fail(Interrupted(cause))
        wakeup.callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        if self._ok is not None:
            # A stale wakeup: an interrupt raced the process finishing
            # in the same timestep.  The process is done — consume the
            # event so its failure cannot escalate, and drop it.
            if not event._ok:
                event.defused = True
            return
        env = self.env
        generator = self._generator
        env._active_process = self
        self._target = None
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event.defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                env._active_process = None
                self.succeed(getattr(stop, "value", None))
                return
            except BaseException as error:  # generator raised
                env._active_process = None
                self.fail(error)
                return

            if not isinstance(next_event, Event):
                env._active_process = None
                error = RuntimeError(
                    "process yielded a non-event: {!r}".format(next_event)
                )
                generator.throw(error)
                return
            callbacks = next_event.callbacks
            if callbacks is None:
                # Already processed: continue immediately with its outcome.
                event = next_event
                continue
            callbacks.append(self._resume)
            self._target = next_event
            env._active_process = None
            return


class Condition(Event):
    """Base for events combining several sub-events.

    A sub-event counts as *done* once it has been processed (its
    callbacks ran), not merely once it is triggered — a ``Timeout`` is
    triggered at creation but only "happens" at its scheduled time.
    """

    __slots__ = ("events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):  # noqa: F821
        super().__init__(env)
        self.events = list(events)
        self._done = 0
        for event in self.events:
            if event.callbacks is None:
                # Already processed before the condition was created.
                if not event._ok:
                    if self._ok is None:
                        self.fail(event._value)
                else:
                    self._done += 1
            else:
                event.callbacks.append(self._observe)
        if self._ok is None and self._satisfied():
            self._finalize()

    def _observe(self, event: Event) -> None:
        if self._ok is not None:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._satisfied():
            self._finalize()

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _finalize(self) -> None:
        values = {
            i: e._value
            for i, e in enumerate(self.events)
            if e.callbacks is None and e._ok
        }
        self.succeed(values)


class AllOf(Condition):
    """Triggers once every sub-event has succeeded (fails fast)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done == len(self.events)


class AnyOf(Condition):
    """Triggers once any sub-event has succeeded (or immediately when
    created over an empty list)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= 1 or not self.events
