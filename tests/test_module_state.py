"""Module-level state of the program, listed mechanically.

Every module under ``repro`` is imported and each name it binds at
module level is snapshotted — a container by its contents, a cached
function by its ``cache_info()``, anything else by its ``repr`` — around
a small mixed workload.  The names whose value moved, plus the names a
function rebinds with ``global``, must be exactly :data:`MODULE_STATE`:
the list ROADMAP item 5 wants emptied, kept honest by the program
rather than by hand.
"""

import ast
import importlib
import inspect
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

#: module-level names that hold state across calls
MODULE_STATE = {
    "repro.engine.caches._memos",
    "repro.engine.kernels._chain_kernel",
    "repro.engine.kernels.stats",
    "repro.engine.morsel.decline_reasons",
    "repro.engine.morsel.stats",
    "repro.engine.operators.base._op_counter",
    "repro.engine.plan_cache.stats",
    "repro.harness.experiments.ssb_database",
    "repro.harness.experiments.tpch_database",
    "repro.harness.parallel._cell_workload",
    "repro.storage.shm._attached",
    "repro.storage.shm._created_names",
    "repro.storage.shm._epoch",
    "repro.storage.shm._export_owners",
    "repro.storage.shm._exports",
    "repro.storage.shm._verified",
    "repro.storage.shm.stats",
}

_SCALARS = (int, float, complex, str, bytes, bool, type(None))


def _modules():
    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.name != "repro.__main__"]


def _top_level(body):
    """Statements executed at import time (into ``if`` / ``try``, not
    into functions or classes)."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", ()),
                          *(handler.body for handler
                            in getattr(node, "handlers", ()))):
                yield from _top_level(block)


def _own_names(module):
    """(names the module binds itself, names a function rebinds)."""
    tree = ast.parse(inspect.getsource(module))
    bound = set()
    for node in _top_level(tree.body):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
            continue
        else:
            continue
        bound.update(target.id for target in targets
                     if isinstance(target, ast.Name))
    rebound = {name for node in ast.walk(tree)
               if isinstance(node, ast.Global) for name in node.names}
    return bound, rebound


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


def _state():
    state = {}
    for module in _modules():
        bound, _ = _own_names(module)
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
def test_module_state_is_the_listed_names():
    before = _state()
    moved = {name for _ in _workload() for name, value in _state().items()
             if before.get(name) != value}
    rebound = {"{}.{}".format(module.__name__, name)
               for module in _modules() for name in _own_names(module)[1]}
    assert moved | rebound == MODULE_STATE


def test_no_storage_module_imports_a_layer_above_at_import_time():
    """Storage is the bottom layer: what depends on it is imported
    inside the function that needs it, never at module level."""
    above = ("repro.engine", "repro.core", "repro.harness")
    offenders = []
    for module in _modules():
        if not module.__name__.startswith("repro.storage"):
            continue
        tree = ast.parse(inspect.getsource(module))
        for node in _top_level(tree.body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders.extend(
                "{}: {}".format(module.__name__, name) for name in names
                if name.startswith(above))
    assert offenders == []
