"""The data-placement manager (Sec. 3.2, Algorithm 1).

A central component decides the co-processor cache content from the
workload's access pattern: the columns with the highest access counts
are placed in the cache, most frequent first, until the buffer is full.
Cached columns are *pinned* — operator execution never inserts or
evicts under data-driven placement, which is exactly why cache
thrashing cannot occur.

Both the LFU strategy (default) and the LRU variant of Appendix E are
supported.  With several co-processors (Sec. 6.3) the manager
partitions the hot set across the devices: small (dimension) columns
replicate everywhere, large (fact) columns first-fit in rank order so
the hottest set clusters like the single-device prefix — the
horizontal scale-out the paper sketches.

:class:`PlacementPrefetcher` turns the same ranking into *background*
traffic: on the async link topology it fills idle h2d
windows with the next-ranked hot columns, yielding the channel to
demand copies at chunk boundaries.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Set
from weakref import WeakKeyDictionary

from repro.engine import caches
from repro.hardware import DeviceCache, PCIeTransferFault
from repro.storage import Database


class DataPlacementManager:
    """Background job adjusting the co-processor cache content."""

    def __init__(self, database: Database,
                 cache: Optional[DeviceCache] = None,
                 policy: str = "lfu",
                 caches: Optional[Sequence[DeviceCache]] = None):
        if policy not in ("lfu", "lru"):
            raise ValueError("unknown placement policy {!r}".format(policy))
        if (cache is None) == (caches is None):
            raise ValueError("provide exactly one of cache / caches")
        self.database = database
        self.caches: List[DeviceCache] = (
            list(caches) if caches is not None else [cache]
        )
        self.policy = policy

    @property
    def cache(self) -> DeviceCache:
        """The first device's cache (single-GPU call sites)."""
        return self.caches[0]

    # -- Algorithm 1 ----------------------------------------------------

    def _ranked_columns(self) -> List[str]:
        statistics = self.database.statistics
        if self.policy == "lfu":
            return statistics.by_frequency()
        return statistics.by_recency()

    #: columns at most this fraction of a device cache are replicated
    #: on every device (dimension tables / access structures), so joins
    #: and aggregations stay co-located with their fact columns
    REPLICATION_FRACTION = 0.05

    def partition(self) -> List[List[str]]:
        """Algorithm 1, generalised to several devices.

        Small columns (dimension tables) are *replicated* on every
        device; large (fact) columns fill the devices sequentially in
        rank order, so the hottest set clusters exactly like the
        single-device prefix and extra devices extend it.  With a
        single device this degenerates to the paper's greedy prefix.
        """
        remaining = [cache.capacity for cache in self.caches]
        assignment: List[List[str]] = [[] for _ in self.caches]
        replication_limit = (
            min(cache.capacity for cache in self.caches)
            * self.REPLICATION_FRACTION
        )
        replicate_everywhere = len(self.caches) > 1
        for key in self._ranked_columns():
            try:
                column = self.database.column(key)
            except KeyError:
                continue  # stale statistics after schema changes
            nbytes = column.nominal_bytes
            if replicate_everywhere and nbytes <= replication_limit:
                for index in range(len(self.caches)):
                    if nbytes <= remaining[index]:
                        assignment[index].append(key)
                        remaining[index] -= nbytes
                continue
            # first fit: the hottest columns cluster on the first
            # device exactly like the single-device prefix
            for index in range(len(self.caches)):
                if nbytes <= remaining[index]:
                    assignment[index].append(key)
                    remaining[index] -= nbytes
                    break
        return assignment

    def apply_placement(self) -> List[str]:
        """Instant cache update (no simulated transfer cost).

        Used to pre-load access structures before a benchmark starts,
        as the paper does (Sec. 6.1).  Returns all cached column keys.
        """
        for cache, keys in zip(self.caches, self.partition()):
            self._update_cache(cache, set(keys))
        return sorted(
            key for cache in self.caches for key in cache.keys
        )

    def _update_cache(self, cache: DeviceCache, new_set) -> None:
        old_set = set(cache.keys)
        for key in old_set - new_set:
            entry = cache.entry(key)
            if entry.refcount > 0:
                # In use by a running operator: deferred cleanup, the
                # next placement run will retry (Sec. 3.2).
                continue
            cache.evict(key)
        for key in sorted(new_set - old_set):
            column = self.database.column(key)
            cache.admit(key, column.nominal_bytes, pinned=True)
        for key in new_set & old_set:
            cache.pin(key)


class PlacementPrefetcher:
    """Fills idle h2d windows with the next-ranked hot columns.

    One background DES process per device watches that device's
    host-to-device channel.  Whenever the channel drains to idle, the
    process pulls up to ``depth`` columns from the placement manager's
    ranking (Algorithm 1's partition for this device) that are not yet
    cached, moving each with the engine's *preemptible* pump — a demand
    copy arriving mid-prefetch takes the channel at the next chunk
    boundary, so foreground queries never wait for more than one chunk
    of background traffic.

    Prefetched columns are admitted to the cache unpinned, so they age
    out under the cache's own policy if the ranking was wrong; a column
    that no longer fits, or whose copy faults, is skipped for the rest
    of the run rather than retried in a loop — or until the database is
    forgotten (:func:`repro.engine.caches.forget`, e.g. when its epoch
    retires): a key is given up because *that* database's cache content
    and column sizes left no room.
    """

    def __init__(self, hardware, placement: DataPlacementManager,
                 depth: int = 2):
        if not hardware.bus.asynchronous:
            raise ValueError("the prefetcher needs the async link topology")
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        self.hardware = hardware
        self.placement = placement
        self.depth = depth
        self.engine = hardware.bus

    def _skips(self) -> Dict[str, Set[str]]:
        """Given-up keys per device: this prefetcher's entry in its
        database's ``"prefetch_skips"`` memo."""
        return caches.memo(self.placement.database, "prefetch_skips",
                           WeakKeyDictionary).setdefault(self, {})

    def start(self) -> None:
        """Spawn one prefetch process per co-processor."""
        env = self.hardware.env
        for index, device in enumerate(self.hardware.gpus):
            if index >= len(self.placement.caches):
                break
            env.process(self._run(index, device))

    def _run(self, index: int, device) -> Generator:
        channel = self.engine.channel(device.name, "h2d")
        while True:
            yield from self._fill_window(index, device, channel)
            # sleep until the next drain-to-idle transition: every
            # completed copy may have changed what is worth fetching
            yield channel.wait_idle()

    def _fill_window(self, index: int, device, channel) -> Generator:
        fetched = 0
        for key, nbytes in self._candidates(index, device):
            if fetched >= self.depth or channel.busy:
                break
            if nbytes > device.cache.available:
                continue
            try:
                yield from self.engine.transfer(
                    nbytes, "h2d", device=device.name, key=key,
                    prefetch=True,
                )
            except PCIeTransferFault:
                self._skips().setdefault(device.name, set()).add(key)
                continue
            # demand traffic may have filled the cache while the copy
            # was on the wire; a failed admit stays failed, so give up
            # on the key instead of re-copying it on every idle window
            if (nbytes <= device.cache.available
                    and device.cache.admit(key, nbytes)):
                self.engine.mark_prefetched(device.name, key)
                if self.hardware.metrics is not None:
                    self.hardware.metrics.record_prefetch(nbytes)
                fetched += 1
            else:
                self._skips().setdefault(device.name, set()).add(key)

    def _candidates(self, index: int, device):
        """(key, nbytes) pairs worth prefetching, hottest first."""
        skip = self._skips().get(device.name, ())
        engine = self.engine
        for key in self.placement.partition()[index]:
            if key in device.cache or key in skip:
                continue
            if engine.in_flight(device.name, "h2d", key):
                continue
            try:
                column = self.placement.database.column(key)
            except KeyError:
                continue
            yield key, column.nominal_bytes

