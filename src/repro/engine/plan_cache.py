"""Cross-run functional result cache keyed by structural plan fingerprints.

The functional (numpy) work of a subplan depends only on the database
and the subplan's structure — never on placement, caching, users, or
any other simulated-hardware knob.  Memoising results under a
structural fingerprint therefore lets *different* queries and *repeated
runs* share the numpy work wherever they share a subplan (the classic
example: every SSB query starts from the same lineorder scan), while
the simulation still models every timing aspect of every execution
independently.

Entries are the ``"plan"`` memo of :mod:`repro.engine.caches`, so
dropping a database drops its cached results, and code that mutates a
database in place (e.g. compression rewrites columns) calls
``caches.forget`` so stale payloads can never leak into a later —
validated — run.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.engine import caches

#: hit/miss counters for benchmarking and tests
stats = {"hits": 0, "misses": 0, "stores": 0}


def lookup(database, fingerprint) -> Optional[Tuple]:
    """Cached result tuple for ``fingerprint`` on ``database``, if any."""
    if fingerprint is None:
        return None
    cached = caches.memo(database, "plan").get(fingerprint)
    if cached is None:
        stats["misses"] += 1
    else:
        stats["hits"] += 1
    return cached


def peek(database, fingerprint) -> Optional[Tuple]:
    """Like :func:`lookup`, but without touching the hit/miss counters.

    Used by the morsel layer's already-memoised check, which must not
    distort the statistics the executor loop reports."""
    if fingerprint is None:
        return None
    return caches.memo(database, "plan").get(fingerprint)


def store(database, fingerprint, cached: Tuple) -> None:
    """Memoise one result tuple under ``fingerprint``."""
    if fingerprint is None:
        return
    caches.memo(database, "plan")[fingerprint] = cached
    stats["stores"] += 1


def reset_stats() -> None:
    for key in stats:
        stats[key] = 0
