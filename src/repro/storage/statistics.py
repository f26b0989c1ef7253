"""Access statistics feeding the data-placement manager.

"Each column in the database has an access counter, which is
incremented each time an operator accesses a column" (Sec. 3.2).
Recency is tracked as well so the LRU variant of the background
placement policy (Appendix E) has something to order by.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List


class AccessStatistics:
    """Per-column access counts and recency."""

    def __init__(self):
        self._counts: Counter = Counter()
        self._last_access: Dict[str, float] = {}
        self._tick = 0

    def record_access(self, column_key: str, now: float = None) -> None:
        """Record one operator access to ``column_key``."""
        self.record_accesses((column_key,), now)

    def record_accesses(self, column_keys, now: float = None) -> None:
        """Record one access per key, in order: each bumps the key's
        count and the tick, and stamps the key with ``now`` (the
        simulated clock; None stamps the tick)."""
        counts = self._counts
        last = self._last_access
        tick = self._tick
        for key in column_keys:
            counts[key] += 1
            tick += 1
            last[key] = float(tick if now is None else now)
        self._tick = tick

    def access_count(self, column_key: str) -> int:
        return self._counts[column_key]

    def last_access(self, column_key: str) -> float:
        return self._last_access.get(column_key, float("-inf"))

    def by_frequency(self) -> List[str]:
        """Column keys, most frequently accessed first (LFU order).

        Ties break on recency so the ordering is deterministic.
        """
        return [
            key
            for key, _ in sorted(
                self._counts.items(),
                key=lambda item: (-item[1], -self._last_access.get(item[0], 0.0), item[0]),
            )
        ]

    def by_recency(self) -> List[str]:
        """Column keys, most recently accessed first (LRU order)."""
        return [
            key
            for key, _ in sorted(
                self._last_access.items(), key=lambda item: (-item[1], item[0])
            )
        ]

    def reset(self) -> None:
        self._counts.clear()
        self._last_access.clear()
        self._tick = 0

    def __len__(self) -> int:
        return len(self._counts)
