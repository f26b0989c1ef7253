"""Registry of the engine's per-database acceleration caches.

Several layers memoise derived state against a live database —
:mod:`repro.engine.plan_cache` keeps functional subplan results,
:mod:`repro.engine.kernels` keeps join indexes and key bounds.  Anything
that mutates a database in place (``compress_database``) or wants a
clean slate (``clear_database_caches``, the test-session fixture) must
drop *all* of them; this registry is the single place that knows the
full set.

Caches self-register at import time.  That is sound: a cache whose
module was never imported cannot hold state, so invalidating only the
registered ones can never miss a populated cache.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple
from weakref import WeakKeyDictionary

#: name -> (invalidate(database=None), cache_size(database=None))
_registry: "Dict[str, Tuple[Callable, Callable]]" = {}


def register(name: str, invalidate: Callable, cache_size: Callable) -> None:
    """Register one cache's invalidation and sizing hooks."""
    _registry[name] = (invalidate, cache_size)


def per_database(name: str) -> "WeakKeyDictionary":
    """A new registered memo ``database -> {key: derived value}``.

    Entries die with their database and with ``invalidate_all``; the
    owner only reads and fills the mapping.
    """
    memo: "WeakKeyDictionary" = WeakKeyDictionary()

    def invalidate(database=None) -> None:
        if database is None:
            memo.clear()
        else:
            memo.pop(database, None)

    def cache_size(database=None) -> int:
        if database is not None:
            return len(memo.get(database) or ())
        return sum(len(entries) for entries in memo.values())

    register(name, invalidate, cache_size)
    return memo


def registered() -> Tuple[str, ...]:
    """Names of every registered cache."""
    return tuple(sorted(_registry))


def invalidate_all(database=None) -> None:
    """Invalidate every registered cache — globally, or one database's."""
    for invalidate, _ in _registry.values():
        invalidate(database)


def cache_sizes(database=None) -> Dict[str, int]:
    """Entry counts per registered cache (for tests and benchmarks)."""
    return {
        name: size(database) for name, (_, size) in sorted(_registry.items())
    }
