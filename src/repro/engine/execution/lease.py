"""Everything one device attempt holds, and the one way to give it back.

A :class:`DeviceLease` owns the device state of one
:func:`~repro.engine.execution.operator_task.device_attempt` and
defines the cache-hit protocol, the cache-miss protocol and the
rollback once; the attempt keeps the *order* of its primitives, which
decides when an out-of-memory abort fires and which seeded fault roll
each consumes (docs/robustness.md).
"""

from __future__ import annotations

from typing import Generator, Iterable


class DeviceLease:
    """Device state of one attempt of ``owner`` on ``device``.

    ``overlap`` runs :meth:`copy` as background processes the attempt
    joins later (:meth:`join`) instead of waiting for each in line.
    """

    __slots__ = ("env", "metrics", "link", "device", "cache", "heap",
                 "owner", "overlap", "pins", "staged", "staged_bytes",
                 "working", "inflight")

    def __init__(self, ctx, device, owner: str, overlap: bool = False):
        self.env = ctx.env
        self.metrics = ctx.metrics
        self.link = ctx.bus
        self.device = device.name
        self.cache = device.cache
        self.heap = device.heap
        self.owner = owner
        self.overlap = overlap
        #: cache keys this attempt holds a reference on
        self.pins = []
        #: heap allocations: inputs the cache did not take / working memory
        self.staged = []
        self.staged_bytes = 0  # bytes ever staged (not reset by release)
        self.working = []
        #: copies still on the wire that the attempt must see land
        self.inflight = []

    def hit(self, key) -> bool:
        """Cache-hit protocol; False when ``key`` is not cached."""
        cache = self.cache
        if key not in cache:
            return False
        cache.touch(key)
        cache.acquire(key)
        self.pins.append(key)
        link = self.link
        if link.was_prefetched(self.device, key):
            self.metrics.record_prefetch_hit()
        # cache content can still be on the wire (another operator or
        # the prefetcher admitted it while its copy is in flight):
        # coalesce onto that copy
        pending = link.attach(self.device, "h2d", key)
        if pending is not None:
            self.inflight.append(pending)
        return True

    def miss(self, key, nbytes: int, admit: bool = False,
             share: float = 1.0) -> Generator:
        """Cache-miss protocol for a column of ``nbytes``: copy
        ``share`` of it, then admit it to the cache (``admit``:
        operator-driven data placement) or hold it in the heap staging
        area for the duration of the operator.  A partial column never
        enters the cache — a later full-column hit must mean full bytes
        — and its copy is not coalescable."""
        cache = self.cache
        cache.record_miss()
        whole = share >= 1.0
        if not whole:
            nbytes = int(nbytes * share)
        yield from self.copy(nbytes, "h2d", key if whole else None)
        if admit and whole and cache.admit(key, nbytes):
            cache.acquire(key)
            self.pins.append(key)
        else:
            self.stage(nbytes)

    def copy(self, nbytes: int, direction: str, key=None) -> Generator:
        """One copy on this device's link, awaited or (``overlap``)
        left running in the background."""
        transfer = self.link.transfer(nbytes, direction,
                                      device=self.device, key=key)
        if self.overlap:
            self.spawn(transfer)
        else:
            yield from transfer

    def spawn(self, generator: Generator) -> None:
        """Run a copy as a background process joined by :meth:`join`.
        It can fail via fault injection; pre-defused, so an abort on
        another path cannot leave an unwaited failure to crash the
        event loop."""
        transfer = self.env.process(generator)
        transfer.defused = True
        self.inflight.append(transfer)

    def join(self) -> Generator:
        """Wait until every in-flight copy has landed; raises the
        fault of a copy that died."""
        for transfer in self.inflight:
            yield transfer
        self.inflight.clear()

    def stage(self, nbytes: int) -> None:
        """Heap staging area for an input (zero bytes included: every
        allocation is a fault-injection opportunity)."""
        self.staged.append(self.heap.allocate(nbytes, owner=self.owner))
        self.staged_bytes += nbytes

    def allocate(self, nbytes: int) -> None:
        """One step of the operator's working memory."""
        self.working.append(self.heap.allocate(nbytes, owner=self.owner))

    def retain(self, result) -> None:
        """Keep ``result`` on the device heap until its consumer has
        read it.  When it fits, it lives inside the (shrunk) working
        area; a result that outgrew the working memory needs a fresh
        buffer, which can fail after the compute — the expensive late
        abort."""
        working = self.working
        if working and result.nominal_bytes <= working[0].nbytes:
            kept = working[0]
            for extra in working[1:]:
                extra.free()
            kept.shrink(result.nominal_bytes)
            working.clear()
            result.allocation = kept
        else:
            result.allocation = self.heap.allocate(result.nominal_bytes,
                                                   owner=self.owner)
        result.location = self.device

    def release(self) -> None:
        """The rollback, idempotent: drop the cache references, free
        the staging and working memory.  Run from the executor's
        ``finally``, so faults, cancellation interrupts and normal
        completion return the device the same way; copies still on the
        wire are abandoned."""
        cache = self.cache
        for key in self.pins:
            cache.release(key)
        for allocation in self.staged:
            allocation.free()
        for allocation in self.working:
            allocation.free()
        self.pins.clear()
        self.staged.clear()
        self.working.clear()


def pull_to_host(ctx, results: Iterable) -> Generator:
    """DES generator: bring the device-resident ``results`` host-side
    before CPU work reads them — the paper's fallback cost
    (Sec. 2.5.1).  Never fault-injected: the CPU floor stays reachable."""
    for result in results:
        if result.location != "cpu":
            yield from ctx.hardware.host_transfer(
                result.nominal_bytes, "d2h", device=result.location)


def deliver_to_host(ctx, result) -> Generator:
    """DES generator: a root result that finished on a device returns
    to the host and gives its device memory back."""
    if result.location != "cpu":
        yield from pull_to_host(ctx, (result,))
        result.release_device_memory()
        result.location = "cpu"
