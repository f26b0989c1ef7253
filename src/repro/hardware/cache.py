"""Co-processor column cache.

Part of the device memory is used as a cache for access structures
(columns); the rest is heap (Sec. 2.1).  The cache supports the two
eviction policies the paper compares (LRU and LFU, Appendix E),
pinning (used by the data-driven placement manager, Sec. 3.2), and
reference counts so entries used by running operators are never evicted
mid-flight.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional

from repro.metrics import MetricsCollector

#: Supported eviction policies.
POLICIES = ("lru", "lfu")


class CacheEntry:
    """Book-keeping for one cached column."""

    __slots__ = (
        "key",
        "nbytes",
        "pinned",
        "refcount",
        "last_access",
        "access_count",
        "inserted_at",
    )

    def __init__(self, key: Hashable, nbytes: int, now: float, pinned: bool):
        self.key = key
        self.nbytes = nbytes
        self.pinned = pinned
        self.refcount = 0
        self.last_access = now
        self.access_count = 1
        self.inserted_at = now

    def __repr__(self) -> str:
        return "<CacheEntry {} {}B pinned={} refs={}>".format(
            self.key, self.nbytes, self.pinned, self.refcount
        )


class DeviceCache:
    """A byte-budgeted cache of columns with LRU/LFU eviction."""

    def __init__(
        self,
        capacity_bytes: int,
        policy: str = "lru",
        metrics: Optional[MetricsCollector] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if capacity_bytes < 0:
            raise ValueError("cache capacity must be >= 0")
        if policy not in POLICIES:
            raise ValueError("unknown cache policy {!r}".format(policy))
        self.capacity = int(capacity_bytes)
        self.policy = policy
        self.metrics = metrics
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._entries: Dict[Hashable, CacheEntry] = {}
        #: entries invalidated by a device reset while still referenced
        #: by running operators; evicted on their final release
        self._doomed: set = set()
        self.used = 0

    # -- queries ------------------------------------------------------

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def keys(self) -> List[Hashable]:
        """Keys currently cached (no particular order)."""
        return list(self._entries)

    @property
    def available(self) -> int:
        return self.capacity - self.used

    def entry(self, key: Hashable) -> CacheEntry:
        return self._entries[key]

    # -- accesses -----------------------------------------------------

    def touch(self, key: Hashable) -> None:
        """Record an access to a cached column (hit)."""
        entry = self._entries[key]
        entry.last_access = self._clock()
        entry.access_count += 1
        if self.metrics is not None:
            self.metrics.record_cache_hit()

    def record_miss(self) -> None:
        """Record an access that was not served from the cache."""
        if self.metrics is not None:
            self.metrics.record_cache_miss()

    def acquire(self, key: Hashable) -> None:
        """Mark a cached column as in use by a running operator."""
        self._entries[key].refcount += 1

    def release(self, key: Hashable) -> None:
        """Release an in-use mark; entries may be evicted again at zero."""
        entry = self._entries.get(key)
        if entry is None:
            # The entry can have been force-evicted by a placement
            # change after the operator finished staging it; the paper
            # uses reference counts plus deferred cleanup here.
            return
        if entry.refcount <= 0:
            raise RuntimeError("release() without matching acquire()")
        entry.refcount -= 1
        if entry.refcount == 0 and key in self._doomed:
            # Deferred invalidation from a device reset: the last
            # reader is done, drop the entry now.
            self.evict(key)

    # -- admission and eviction ---------------------------------------

    def admit(self, key: Hashable, nbytes: int, pinned: bool = False) -> bool:
        """Insert a column, evicting victims per policy as needed.

        Returns False (and caches nothing) when the column cannot fit
        even after evicting every unpinned, unreferenced entry.
        """
        if key in self._entries:
            self.touch(key)
            return True
        if nbytes > self.capacity:
            return False
        evictable = self._evictable_bytes()
        if nbytes > self.available + evictable:
            return False
        while nbytes > self.available:
            victim = self._select_victim()
            assert victim is not None, "evictable accounting out of sync"
            self.evict(victim.key)
        entry = CacheEntry(key, nbytes, self._clock(), pinned)
        self._entries[key] = entry
        self.used += nbytes
        return True

    def evict(self, key: Hashable) -> None:
        """Remove a column from the cache."""
        entry = self._entries.pop(key)
        self._doomed.discard(key)
        self.used -= entry.nbytes
        if self.metrics is not None:
            self.metrics.record_cache_eviction()

    def reset(self) -> None:
        """Flush the cache after an injected device reset.

        Unreferenced entries drop immediately.  Entries still read by
        running operators are *doomed* instead and evicted on their
        final :meth:`release` — memory is never yanked from under a
        running kernel (the paper's latching discussion), but nothing
        survives the reset.
        """
        for key in list(self._entries):
            if self._entries[key].refcount == 0:
                self.evict(key)
            else:
                self._doomed.add(key)

    def pin(self, key: Hashable) -> None:
        self._entries[key].pinned = True

    def unpin(self, key: Hashable) -> None:
        self._entries[key].pinned = False

    # -- internal -----------------------------------------------------

    def _evictable_bytes(self) -> int:
        return sum(
            e.nbytes
            for e in self._entries.values()
            if not e.pinned and e.refcount == 0
        )

    def _select_victim(self) -> Optional[CacheEntry]:
        candidates = [
            e
            for e in self._entries.values()
            if e.refcount == 0 and not e.pinned
        ]
        if not candidates:
            return None
        if self.policy == "lfu":
            return min(candidates, key=lambda e: (e.access_count, e.last_access))
        return min(candidates, key=lambda e: (e.last_access, e.inserted_at))
