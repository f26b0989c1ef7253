"""Deterministic discrete-event simulation (DES) kernel.

This package is the execution substrate for the simulated heterogeneous
hardware platform.  It provides a small, simpy-like coroutine scheduler:
processes are Python generators that ``yield`` events; the environment
advances a virtual clock and resumes processes when the events they wait
on are triggered.

The kernel is intentionally minimal but complete for the needs of the
query-processing simulation:

* :class:`Environment` — the event loop and virtual clock.
* :class:`Event` — one-shot events with success/failure semantics.
* :class:`Process` — a running generator, itself awaitable as an event.
* :class:`Timeout` — an event that fires after a virtual delay.
* :class:`AllOf` — the condition event over several events.
* :class:`Resource` — a counted resource with a FIFO wait queue (used to
  model processors, worker pools, and the PCIe bus).
* :class:`Store` — an unbounded producer/consumer queue (used to model
  the ready queues of the query-chopping executor).

Everything runs in a single OS thread; concurrency exists only in
virtual time, which makes every experiment in this repository exactly
reproducible.
"""

from repro.sim.events import AllOf, Event, Interrupted, Process, Timeout
from repro.sim.environment import Environment
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Interrupted",
    "Process",
    "Resource",
    "Store",
    "Timeout",
]
