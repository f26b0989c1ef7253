"""Processor model: an egalitarian processor-sharing queue.

A processor executes any number of operators concurrently, sharing its
device-level throughput equally among them — the behaviour of CUDA
kernels from concurrent streams, and of CoGaDB's intra-operator
parallelism timesharing the CPU cores.  An operator submitting
``seconds`` of work (its full-device execution time) finishes after
``seconds * n`` wall-clock when ``n`` operators run throughout.

This model has two properties the experiments rely on:

* total throughput is independent of concurrency (an ideal system
  executes a fixed workload in the same time regardless of the number
  of user sessions, Sec. 2.3), and
* concurrency stretches *residency*: operators hold their device heap
  allocations for longer under load, which is exactly what sustains
  the heap-contention effect.
"""

from __future__ import annotations

import enum
from math import inf
from typing import Dict, Generator, Optional

from repro.hardware.errors import DeviceReset, DeviceStall, KernelLaunchFault
from repro.metrics import MetricsCollector
from repro.sim import Environment, Event, Timeout


class ProcessorKind(enum.Enum):
    """CPU or co-processor (GPU-style accelerator)."""

    CPU = "cpu"
    GPU = "gpu"


class _Job:
    __slots__ = ("remaining", "event")

    def __init__(self, work: float, event: Event):
        self.remaining = work
        self.event = event


class Processor:
    """A compute device shared equally among its running operators."""

    #: remaining work below this is considered finished (numerical dust)
    EPSILON = 1e-12

    def __init__(
        self,
        env: Environment,
        name: str,
        kind: ProcessorKind,
        metrics: Optional[MetricsCollector] = None,
    ):
        self.env = env
        self.name = name
        self.kind = kind
        self.metrics = metrics
        #: fault injector (installed by HardwareSystem.install_faults);
        #: None means no injection and zero overhead.  Only co-processor
        #: submissions are injection sites — CPU work never faults, so
        #: the CPU-only floor is always reachable.
        self.injector = None
        #: called when an injected DeviceReset fires (wired to the
        #: device's column-cache flush by HardwareSystem)
        self.on_reset = None
        self._jobs: Dict[int, _Job] = {}
        self._next_job_id = 0
        self._last_update = env.now
        #: the one live timer (next job completion); None when idle
        self._timer: Optional[Timeout] = None
        #: when it was armed, and the shortest remaining work then
        self._armed_at = self._shortest = 0.0

    def __repr__(self) -> str:
        return "<Processor {} ({})>".format(self.name, self.kind.value)

    @property
    def active_jobs(self) -> int:
        """Operators currently executing."""
        return len(self._jobs)

    # -- public API -----------------------------------------------------

    def submit(self, seconds: float) -> Event:
        """Submit ``seconds`` of full-device work; the returned event
        fires when the work completes under fair sharing.

        When a fault injector is installed and this is a co-processor,
        each nonzero submission is an injection site:

        * ``reset`` — the driver resets the device (flushing its column
          cache via ``on_reset``) and the launch fails immediately;
        * ``kernel`` — the launch is rejected immediately;
        * ``stall`` — the kernel hangs and the returned event *fails*
          with :class:`DeviceStall` after the watchdog interval, so the
          submitting operator pays real simulated time before it can
          react.
        """
        if seconds < 0:
            raise ValueError("negative execution time")
        injector = self.injector
        if (injector is not None and seconds > 0
                and self.kind is ProcessorKind.GPU):
            if injector.roll("reset", self.name):
                if self.on_reset is not None:
                    self.on_reset()
                raise DeviceReset(device=self.name)
            if injector.roll("kernel", self.name):
                raise KernelLaunchFault(device=self.name)
            if injector.roll("stall", self.name):
                stall = injector.config.stall_seconds
                event = Event(self.env)
                fault = DeviceStall(stall, device=self.name)
                timer = self.env.timeout(stall)
                timer.callbacks.append(lambda _evt: event.fail(fault))
                return event
        if self._timer is not None and self._armed_at == self.env.now:
            # Same instant as the last re-arm (an operator's second
            # kernel half): no work to account, same shortest job.
            shortest = self._shortest
        else:
            shortest = self._advance()
        event = Event(self.env)
        if seconds == 0:
            event.succeed()
            return event
        self._next_job_id += 1
        self._jobs[self._next_job_id] = _Job(seconds, event)
        self._arm(min(shortest, seconds))
        return event

    def execute(self, seconds: float, label: str = "op") -> Generator:
        """DES process: run ``seconds`` of work and record the operator."""
        yield self.submit(seconds)
        if self.metrics is not None:
            self.metrics.record_operator(self.name, seconds)

    def estimated_drain_seconds(self) -> float:
        """Wall-clock until all current jobs would finish (no arrivals)."""
        self._advance()
        return sum(job.remaining for job in self._jobs.values())

    # -- internals ----------------------------------------------------------

    def _advance(self) -> float:
        """Account the work done since the last state change; returns
        the shortest remaining work (``inf`` when idle)."""
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        shortest = inf
        if self._jobs:
            share = elapsed / len(self._jobs)  # 0.0 within one instant
            for job in self._jobs.values():
                job.remaining = remaining = job.remaining - share
                if remaining < shortest:
                    shortest = remaining
        return shortest

    def _arm(self, shortest: float) -> None:
        """Make the next job completion the one live timer.  The timer
        it supersedes stays in the event heap (event ids break ties, so
        removing an entry would reorder the run) and pops as a no-op."""
        if self._timer is not None:
            self._timer.callbacks.clear()
        self._armed_at = self._last_update
        self._shortest = shortest
        self._timer = timer = Timeout(
            self.env, max(shortest, 0.0) * len(self._jobs))
        timer.callbacks.append(self._on_timer)

    def _on_timer(self, timer: Timeout) -> None:
        if timer is not self._timer:
            return
        self._timer = None
        # :meth:`_advance` again, collecting the finished jobs and the
        # shortest of the others in the same pass over the table.
        jobs = self._jobs
        now = self.env.now
        share = (now - self._last_update) / len(jobs)
        self._last_update = now
        finished = []
        shortest = inf
        epsilon = self.EPSILON
        for job_id, job in jobs.items():
            job.remaining = remaining = job.remaining - share
            if remaining <= epsilon:
                finished.append(job_id)
            elif remaining < shortest:
                shortest = remaining
        for job_id in finished:
            jobs.pop(job_id).event.succeed()
        if jobs:
            self._arm(shortest)
