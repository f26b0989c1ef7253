"""The PCIe link: one transfer model, two topologies.

Every byte to or from a co-processor crosses one PCIe link (Sec. 2.1),
and :class:`CopyEngine` is the only model of it.  Per-copy cost is the
same everywhere — ``latency + nbytes / bandwidth``, with the paper's
transfer optimizations (page-locked staging buffers, asynchronous CUDA
streams, Sec. 2.5.3) folded into the *achieved* effective bandwidth —
so the topology changes *scheduling*, never per-copy cost, and query
results are byte-identical in both.

**Serialized** (``SystemConfig.copy_engine=False``, the paper-faithful
default; ``PCIeBus(...)`` constructs it).  One blocking channel shared
by every device and both directions, the way CoGaDB's synchronous
``cudaMemcpy`` path behaves: concurrent queries queue up, which is
exactly the contention that amplifies cache thrashing under parallel
load.  Nothing is keyed, so nothing coalesces; no wire time is
classified as overlapped; a faulted copy books ``int(nbytes *
fraction)`` bytes (1-byte fault granularity).

**Async** (``SystemConfig.copy_engine=True``).  Real PCIe is full
duplex and modern GPUs expose independent DMA engines per direction;
engines built around that (asynchronous streams, Sec. 2.5.3) overlap
data movement with compute and with the opposite direction:

* **Independent channels.**  One serialised channel per
  ``(device, direction)`` pair: host-to-device copies no longer block
  device-to-host result returns, and devices do not block each other.
* **Chunked transfers.**  Copies move in ``chunk_bytes`` chunks.  Demand
  copies hold their channel for the whole transfer (one DMA job), but
  chunking is observable in two places: injected PCIe faults land
  *mid-chunk* (the partial progress is chunk-aligned and its burned bus
  time is recorded), and prefetch copies re-arbitrate the channel at
  every chunk boundary so a demand transfer never waits for more than
  one chunk of background traffic.
* **In-flight coalescing.**  A copy issued with a ``key`` registers a
  :class:`TransferHandle`; concurrent operators needing the same column
  attach to the in-flight copy's completion event instead of queueing a
  duplicate transfer — the request-coalescing shape of an
  inference-serving batcher.  A failed copy propagates its
  :class:`PCIeTransferFault` to every attached waiter, so each of them
  retries under its own resilience policy.
* **Completion futures.**  ``transfer()`` is a DES generator; executors
  that want overlap wrap it in a background process and join it later,
  and the per-key handles double as futures for attached waiters.

In both topologies only the wire time (not the queueing delay) is
charged to the transfer counters, matching how the paper reports copy
times; time spent waiting for a channel is recorded separately
(``record_transfer_queueing``), so contention is measurable instead of
silently folded into copy time.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Generator, Optional, Set, Tuple

from repro.hardware.errors import PCIeTransferFault
from repro.metrics import MetricsCollector
from repro.sim import Environment, Event, Resource

#: channel key for transfers that name no device endpoint
_HOST = "host"

#: link topologies (see the module docstring)
SERIALIZED = "serialized"
ASYNC = "async"


class _Channel:
    """One serialised DMA channel with idle-transition notification."""

    __slots__ = ("env", "resource", "_idle_event")

    def __init__(self, env: Environment):
        self.env = env
        self.resource = Resource(env, capacity=1)
        self._idle_event: Optional[Event] = None

    @property
    def busy(self) -> bool:
        """True while a copy holds or waits for the channel."""
        return self.resource.in_use > 0 or self.resource.queue_length > 0

    @property
    def queue_length(self) -> int:
        return self.resource.queue_length

    def request(self):
        return self.resource.request()

    def release(self, request) -> None:
        self.resource.release(request)
        if not self.busy and self._idle_event is not None:
            event, self._idle_event = self._idle_event, None
            event.succeed()

    def wait_idle(self) -> Event:
        """Event firing on the channel's *next* drain-to-idle transition.

        Deliberately not satisfied by an already-idle channel: the
        prefetcher sweeps its candidates once, then sleeps here until
        new traffic completes (each completed copy may have changed
        what is worth fetching next).  Blocking forever is safe — a
        process waiting on a never-fired event does not keep the event
        queue alive.
        """
        if self._idle_event is None:
            self._idle_event = Event(self.env)
        return self._idle_event


class TransferHandle:
    """Future for one in-flight keyed copy (the coalescing target)."""

    __slots__ = ("key", "device", "direction", "nbytes", "event", "waiters")

    def __init__(self, env: Environment, key, device: Optional[str],
                 direction: str, nbytes: int):
        self.key = key
        self.device = device
        self.direction = direction
        self.nbytes = nbytes
        self.event = Event(env)
        #: attached waiters consume a failure through their own yield,
        #: and with zero waiters nobody ever observes the event — either
        #: way the event loop must not escalate it
        self.event.defused = True
        self.waiters = 0


class CopyEngine:
    """The PCIe link model: DMA channels in one of two topologies."""

    def __init__(
        self,
        env: Environment,
        bandwidth_bytes_per_second: float,
        latency_seconds: float = 0.0,
        chunk_bytes: int = 32 * (1 << 20),
        coalescing: bool = True,
        metrics: Optional[MetricsCollector] = None,
        busy_probe: Optional[Callable[[str], bool]] = None,
        topology: str = ASYNC,
    ):
        if bandwidth_bytes_per_second <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_seconds < 0:
            raise ValueError("latency must be >= 0")
        if chunk_bytes <= 0:
            raise ValueError("chunk size must be positive")
        if topology not in (SERIALIZED, ASYNC):
            raise ValueError("unknown link topology {!r}".format(topology))
        #: the one channel every copy shares (serialized topology only)
        self._shared: Optional[_Channel] = None
        if topology == SERIALIZED:
            # the topology fixes the engine knobs: nothing to coalesce
            # onto, no overlap classification, byte-exact fault progress
            chunk_bytes, coalescing, busy_probe = 1, False, None
            self._shared = _Channel(env)
        self.env = env
        self.bandwidth = float(bandwidth_bytes_per_second)
        self.latency = float(latency_seconds)
        self.chunk_bytes = int(chunk_bytes)
        self.coalescing = bool(coalescing)
        self.metrics = metrics
        #: answers "is this device computing right now?" — used to
        #: classify completed wire time as overlapped with compute
        self.busy_probe = busy_probe
        #: fault injector (installed by HardwareSystem.install_faults)
        self.injector = None
        #: optional ExecutionTrace; records one event per copy
        self.trace = None
        self._channels: Dict[Tuple[str, str], _Channel] = {}
        self._inflight: Dict[Tuple[str, str, object], TransferHandle] = {}
        self._prefetched: Dict[str, Set] = {}

    @property
    def asynchronous(self) -> bool:
        """True in the async topology — asked only where the topologies
        *schedule* differently (relay ordering, vector streaming,
        prefetch); moving bytes never needs to."""
        return self._shared is None

    @property
    def queue_length(self) -> int:
        """Transfers waiting for the shared channel — the contention
        signal run-time placement scales its transfer estimates by.
        Always 0 in the async topology: placement there has always read
        an uncontended link, and summing the per-channel queues would
        move placements (docs/copy_engine.md)."""
        return self._shared.queue_length if self._shared is not None else 0

    # -- channel / handle lookups --------------------------------------

    def channel(self, device: Optional[str], direction: str) -> _Channel:
        """The DMA channel serving ``(device, direction)``."""
        if self._shared is not None:
            return self._shared
        key = (device if device is not None else _HOST, direction)
        chan = self._channels.get(key)
        if chan is None:
            chan = self._channels[key] = _Channel(self.env)
        return chan

    def in_flight(self, device: Optional[str], direction: str, key) -> bool:
        """True while a keyed copy of ``key`` is on the wire."""
        return (device, direction, key) in self._inflight

    def attach(self, device: Optional[str], direction: str,
               key) -> Optional[Event]:
        """Coalesce onto an in-flight copy of ``key``; None if there is
        none (or coalescing is disabled).  Yielding the returned event
        waits for the one copy already on the wire — it raises the
        copy's :class:`PCIeTransferFault` if that copy dies."""
        if not self.coalescing or key is None:
            return None
        handle = self._inflight.get((device, direction, key))
        if handle is None:
            return None
        handle.waiters += 1
        if self.metrics is not None:
            self.metrics.record_coalesced(handle.nbytes)
        return handle.event

    # -- transfers ------------------------------------------------------

    def transfer_time(self, nbytes: int) -> float:
        """Pure wire time for ``nbytes`` (excluding queueing)."""
        return self.latency + nbytes / self.bandwidth

    def transfer(self, nbytes: int, direction: str,
                 device: Optional[str] = None, key=None,
                 inject: bool = True, prefetch: bool = False) -> Generator:
        """DES process: move ``nbytes`` on the ``(device, direction)``
        channel.

        ``direction`` is ``"h2d"`` (host to device) or ``"d2h"``.
        ``device`` names the co-processor endpoint: it selects the
        channel (async topology) and attributes injected transient
        :class:`PCIeTransferFault`s — a copy that names no device never
        faults.

        ``key`` (a column key) makes the copy coalescable: a concurrent
        ``transfer()`` or :meth:`attach` for the same key on the same
        channel rides this copy instead of queueing its own.  The
        serialized topology keeps no keyed futures and ignores it.

        ``inject=False`` marks guaranteed transfers (the CPU fallback
        path and result delivery) that must never fault, so the
        CPU-only floor stays reachable; ``prefetch=True`` uses the
        chunk-preemptible pump that yields the channel to queued demand
        copies at chunk boundaries (async topology only).
        """
        if nbytes < 0:
            raise ValueError("cannot transfer a negative volume")
        if direction not in ("h2d", "d2h"):
            raise ValueError(
                "unknown transfer direction {!r}".format(direction))
        if nbytes == 0:
            return
        if self._shared is not None:
            key, prefetch = None, False
        event = self.attach(device, direction, key)
        if event is not None:
            yield event
            return
        handle = None
        if key is not None:
            handle = TransferHandle(self.env, key, device, direction,
                                    int(nbytes))
            self._inflight[(device, direction, key)] = handle
        try:
            if prefetch:
                yield from self._pump_preemptible(
                    int(nbytes), direction, device, inject)
            else:
                yield from self._pump(int(nbytes), direction, device, inject)
        except BaseException as error:
            if handle is not None:
                self._inflight.pop((device, direction, key), None)
                if (handle.waiters > 0
                        and not isinstance(error, PCIeTransferFault)):
                    # The owning query was cancelled mid-copy.  Its
                    # coalesced waiters belong to *other* queries and
                    # must not inherit the cancellation: fail them with
                    # a transfer fault so each retries the copy under
                    # its own resilience policy.
                    handle.event.fail(
                        PCIeTransferFault(nbytes, direction, device=device))
                else:
                    handle.event.fail(error)
            raise
        else:
            if handle is not None:
                self._inflight.pop((device, direction, key), None)
                handle.event.succeed()

    def _record_queueing(self, direction: str, queued_at: float) -> None:
        waited = self.env.now - queued_at
        if waited > 0.0 and self.metrics is not None:
            self.metrics.record_transfer_queueing(direction, waited)

    def _record_wire(self, direction: str, nbytes: int, seconds: float,
                     device: Optional[str]) -> None:
        if self.metrics is None:
            return
        self.metrics.record_transfer(
            direction, nbytes, seconds,
            overlapped=(self.busy_probe is not None and device is not None
                        and self.busy_probe(device)))

    def _trace_copy(self, kind: str, direction: str,
                    device: Optional[str], key, start: float,
                    aborted: bool = False) -> None:
        if self.trace is None:
            return
        self.trace.record(
            label=str(key) if key is not None else "copy",
            kind=kind, processor="{}:{}".format(device or _HOST, direction),
            query="-", start=start, end=self.env.now,
            aborted=aborted, fault="pcie" if aborted else None,
        )

    def _roll_fault(self, device: Optional[str], inject: bool):
        """Fault decision for one copy; returns the burned wire fraction
        (in [0, 1)) when the copy is doomed, else None."""
        injector = self.injector
        if (inject and injector is not None and device is not None
                and injector.roll("pcie", device)):
            return injector.fraction("pcie")
        return None

    def _chunk_aligned_bytes(self, nbytes: int, fraction: float) -> int:
        """Bytes of whole chunks completed before a copy died at
        ``fraction`` of its wire time — the fault lands mid-chunk."""
        chunks = -(-nbytes // self.chunk_bytes)
        return min(int(fraction * chunks) * self.chunk_bytes, nbytes)

    def _pump(self, nbytes: int, direction: str, device: Optional[str],
              inject: bool) -> Generator:
        """Demand copy: hold the channel for the whole transfer."""
        channel = self.channel(device, direction)
        queued_at = self.env.now
        request = channel.request()
        # the channel-wait yield sits inside the try: an interrupt
        # (query cancellation) while queued must not leak the slot
        try:
            yield request
            self._record_queueing(direction, queued_at)
            start = self.env.now
            wire_time = self.transfer_time(nbytes)
            fraction = self._roll_fault(device, inject)
            if fraction is not None:
                # the copy dies mid-chunk: the bus time it burned and
                # the whole chunks that landed are still recorded
                burned = wire_time * fraction
                yield self.env.timeout(burned)
                self._record_wire(
                    direction, self._chunk_aligned_bytes(nbytes, fraction),
                    burned, device)
                self._trace_copy("copy", direction, device, None, start,
                                 aborted=True)
                raise PCIeTransferFault(nbytes, direction, device=device)
            wire_started = self.env.now
            try:
                yield self.env.timeout(wire_time)
            except BaseException:
                # Cancellation landed mid-copy: the wire time already
                # burned is real occupancy, and the whole chunks that
                # landed stay on the books (same accounting as a fault).
                elapsed = self.env.now - wire_started
                if wire_time > 0.0 and elapsed > 0.0:
                    self._record_wire(
                        direction,
                        self._chunk_aligned_bytes(nbytes,
                                                  elapsed / wire_time),
                        elapsed, device)
                    self._trace_copy("copy", direction, device, None,
                                     start, aborted=True)
                raise
            self._record_wire(direction, nbytes, wire_time, device)
            self._trace_copy("copy", direction, device, None, start)
        finally:
            channel.release(request)

    def _pump_preemptible(self, nbytes: int, direction: str,
                          device: Optional[str], inject: bool) -> Generator:
        """Background copy: re-arbitrate at every chunk boundary.

        Whenever a demand copy is queued on the channel, the pump
        releases it after the current chunk and re-requests — the
        channel's FIFO queue then serves the demand copy first.
        """
        channel = self.channel(device, direction)
        chunk = self.chunk_bytes
        total_chunks = max(1, -(-nbytes // chunk))
        wire_time = self.transfer_time(nbytes)
        per_chunk = wire_time / total_chunks
        fraction = self._roll_fault(device, inject)
        fail_after = None if fraction is None else wire_time * fraction
        start = self.env.now
        elapsed = 0.0
        done = 0
        while done < total_chunks:
            queued_at = self.env.now
            request = channel.request()
            try:
                yield request
                self._record_queueing(direction, queued_at)
                while done < total_chunks:
                    if (fail_after is not None
                            and elapsed + per_chunk > fail_after):
                        burn = max(fail_after - elapsed, 0.0)
                        yield self.env.timeout(burn)
                        # burned bus time inside the failing chunk;
                        # completed chunks were recorded as they landed
                        self._record_wire(direction, 0, burn, device)
                        self._trace_copy("prefetch", direction, device,
                                         None, start, aborted=True)
                        raise PCIeTransferFault(nbytes, direction,
                                                device=device)
                    yield self.env.timeout(per_chunk)
                    elapsed += per_chunk
                    done += 1
                    landed = (chunk if done < total_chunks
                              else nbytes - chunk * (total_chunks - 1))
                    self._record_wire(direction, landed, per_chunk, device)
                    if channel.queue_length > 0:
                        break  # yield the channel to a demand copy
            finally:
                channel.release(request)
        self._trace_copy("prefetch", direction, device, None, start)

    # -- prefetch bookkeeping ------------------------------------------

    def mark_prefetched(self, device: str, key) -> None:
        """Remember that ``key`` reached ``device`` by prefetch, so the
        next demand access can be attributed as a prefetch hit."""
        self._prefetched.setdefault(device, set()).add(key)

    def was_prefetched(self, device: str, key) -> bool:
        return key in self._prefetched.get(device, ())


#: the serialized link under its historical name
PCIeBus = functools.partial(CopyEngine, topology=SERIALIZED)
