"""Everything derived from a database, in one memo map.

Several layers memoise derived state against a live database —
:mod:`repro.engine.plan_cache` keeps functional subplan results
(``"plan"``), :mod:`repro.engine.kernels` keeps join indexes and key
bounds (``"kernels"``), the critical-path optimizer keeps sampled
sizes (``"placement_sizes"``).  Each reads and fills its own entry of
:func:`memo`; the entries die with their database, like the per-column
access statistics the database carries itself.

Anything that mutates a database in place (``compress_database``),
retires it (``EpochStore.retire``) or wants a clean slate
(``clear_database_caches``, the test-session fixture) calls
:func:`forget`, the one place that drops all of it — the database's
shared-memory export included.
"""

from __future__ import annotations

from typing import Callable
from weakref import WeakKeyDictionary

from repro.storage import shm

#: database -> {memo name: derived state}
_memos: "WeakKeyDictionary" = WeakKeyDictionary()


def memo(database, name: str, factory: Callable = dict):
    """``database``'s memo called ``name``, made by ``factory`` on
    first use."""
    memos = _memos.get(database)
    if memos is None:
        memos = _memos[database] = {}
    value = memos.get(name)
    if value is None:
        value = memos[name] = factory()
    return value


def forget(database=None) -> None:
    """Drop everything derived from ``database`` — or from every
    database — and unlink its shared-memory export."""
    if database is None:
        _memos.clear()
    else:
        _memos.pop(database, None)
    shm.invalidate(database)

