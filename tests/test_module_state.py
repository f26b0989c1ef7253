"""Module-level state of the program, listed mechanically.

Every module under ``repro`` is imported and each name it binds at
module level is snapshotted — a container by its contents, a cached
function by its ``cache_info()``, anything else by its ``repr`` — around
a small mixed workload.  The names whose value moved, plus the names a
function rebinds with ``global``, must be exactly ``MODULE_STATE`` of
``tests/rules.py`` (its ``unlisted_state`` rule): the list ROADMAP item
5 wants emptied, kept honest by the program rather than by hand.
"""

import importlib
import pkgutil
import types
from collections import deque
from collections.abc import Mapping
from weakref import WeakKeyDictionary, WeakSet, WeakValueDictionary

import pytest

import repro
from repro.engine.execution import execute_functional
from repro.engine.expressions import ColumnRef, Comparison, Literal
from repro.engine.operators import PhysicalPlan, ScanSelect
from repro.hardware import SystemConfig
from repro.hardware.calibration import MIB
from repro.harness.parallel import Cell, MorselPool, run_cells
from repro.harness.runner import run_workload
from repro.storage import shm
from repro.workloads import ssb
from tests import rules

_SCALARS = (int, float, complex, str, bytes, bool, type(None))


def _modules():
    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.name != "repro.__main__"]


def _leaf(value):
    if isinstance(value, _SCALARS):
        return repr(value)
    return type(value).__name__, id(value)


def _snapshot(value):
    if hasattr(value, "cache_info"):
        return value.cache_info()
    if isinstance(value, (types.FunctionType, types.BuiltinFunctionType,
                          types.ModuleType, type)):
        return None
    if isinstance(value, (WeakKeyDictionary, WeakSet)):
        return frozenset(id(key) for key in list(value))
    if isinstance(value, WeakValueDictionary):
        return frozenset((repr(key), id(item))
                         for key, item in list(value.items()))
    if isinstance(value, Mapping):
        return tuple((repr(key), _leaf(item)) for key, item in value.items())
    if isinstance(value, (set, frozenset)):
        return frozenset(map(_leaf, value))
    if isinstance(value, (list, tuple, deque)):
        return tuple(map(_leaf, value))
    return repr(value)


def _state(index):
    state = {}
    for module in _modules():
        bound, _ = index.bindings[module.__name__]
        for name in bound:
            if name.startswith("__") or not hasattr(module, name):
                continue
            state["{}.{}".format(module.__name__, name)] = _snapshot(
                getattr(module, name))
    return state


def _workload():
    """The copy engine with faults, the functional engine (one plan
    fuses, one declines), a two-worker grid and one ``MorselPool``
    round with a worker's attach in process; yields wherever state may
    be live."""
    db = ssb.generate(10, data_scale=1e-4, seed=7)
    queries = ssb.workload(db)
    run_workload(db, queries, "critical_path", users=2, warm_cache=False,
                 config=SystemConfig(copy_engine=True,
                                     gpu_cache_bytes=256 * MIB),
                 faults="pcie=0.05,seed=3")
    execute_functional(queries[0].instantiate(), db)
    execute_functional(PhysicalPlan(ScanSelect("lineorder", Comparison(
        "<", ColumnRef("lineorder", "lo_quantity"), Literal(7)))), db)
    run_cells([Cell(workload=workload, scale_factor=5.0, strategy=strategy)
               for workload, strategy in (("ssb", "cpu_only"),
                                          ("tpch", "gpu_only"))], jobs=2)
    yield
    with MorselPool(db, queries, jobs=2) as pool:
        pool.run_queries()
        shm.attach_database(pool._manifest)
        yield
        shm.detach_all()
    yield


@pytest.mark.skipif(not shm.available(), reason="needs shared memory")
def test_module_state_is_the_listed_names(source_index):
    before = _state(source_index)
    moved = {name for _ in _workload()
             for name, value in _state(source_index).items()
             if before.get(name) != value}
    assert rules.unlisted_state(source_index, moved) == []


def test_no_storage_module_imports_a_layer_above_at_import_time(
        source_index):
    assert rules.storage_imports_above(source_index) == []
