"""Shared resources for DES processes.

:class:`Resource` models anything with a bounded number of slots — a
processor's kernel slots, a worker pool, the PCIe bus.  :class:`Store`
models an unbounded FIFO queue of items with blocking consumers — the
ready queues of the query-chopping executor.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from repro.sim.events import Event


class Request(Event):
    """A pending acquisition of one resource slot.

    The request event succeeds once the slot is granted.  It must be
    passed back to :meth:`Resource.release` exactly once.
    """

    __slots__ = ("resource", "granted")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self.granted = False


class Resource:
    """A counted resource with a FIFO wait queue."""

    __slots__ = ("env", "capacity", "_in_use", "_waiting")

    def __init__(self, env, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got {}".format(capacity))
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of slots currently granted."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for a slot.  Yield the returned event to wait for it."""
        req = Request(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.granted = True
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        if not request.granted:
            # Never granted: remove from the wait queue (cancellation).
            try:
                self._waiting.remove(request)
            except ValueError:
                raise RuntimeError("releasing a request that was never issued")
            return
        request.granted = False
        if self._waiting:
            nxt = self._waiting.popleft()
            nxt.granted = True
            nxt.succeed(nxt)
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO store with blocking ``get``."""

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        """Snapshot of the queued items (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> None:
        """Add ``item``; wakes the oldest waiting consumer, if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that succeeds with the next item (FIFO)."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
