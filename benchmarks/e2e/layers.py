"""Path -> layer table and the cProfile fold built on it.

A *layer* is a group of ``src/repro`` modules named after them.  The
traced run profiles one unit of a workload with ``cProfile`` and
:func:`fold` sums every function's self time and call count into the
layer its source file belongs to:

* time in C builtins (``heappush``, ``list.append``, ...) has no source
  file, so it is attributed to the function that called the builtin;
  so is the time in special methods of classes outside the program
  (``enum.Enum.__hash__`` on every dict lookup keyed by an enum member):
  the interpreter calls them in the middle of the caller's own statement;
* numpy is its own layer: numpy's Python files and the builtins whose
  name carries ``numpy``.  Array arithmetic written as operators
  (``a + b``, ``a[mask]``) and C functions reached through numpy's
  ``__array_function__`` dispatch raise no profiler event, so their time
  stays in the *calling* function's layer — the ``numpy`` layer is a
  lower bound, see the README;
* everything else (stdlib, the benchmark's own loop) is ``python``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

#: ``(path relative to src/repro, layer)``.  A rule ending in ``/`` owns
#: the whole directory, any other rule owns exactly that file.  Every
#: ``.py`` under ``src/repro`` must match exactly one rule
#: (``test_e2e.py`` enforces it).
RULES: Tuple[Tuple[str, str], ...] = (
    ("sql/", "sql"),
    ("engine/planner.py", "engine.planner"),
    ("engine/logical.py", "engine.planner"),
    ("engine/cardinality.py", "engine.planner"),
    ("engine/__init__.py", "engine.operators"),
    ("engine/operators/", "engine.operators"),
    ("engine/expressions.py", "engine.operators"),
    ("engine/intermediates.py", "engine.operators"),
    ("engine/frame.py", "engine.operators"),
    ("engine/kernels.py", "engine.kernels"),
    ("engine/caches.py", "engine.kernels"),
    ("engine/plan_cache.py", "engine.kernels"),
    ("engine/morsel.py", "engine.morsel"),
    ("engine/execution/", "engine.execution"),
    ("engine/reference.py", "engine.reference"),
    ("core/__init__.py", "core.placement"),
    ("core/placement/", "core.placement"),
    ("core/data_placement.py", "core.placement"),
    ("core/chopping.py", "core.chopping"),
    ("hype/", "hype"),
    ("sim/", "sim"),
    ("hardware/", "hardware"),
    ("storage/", "storage"),
    ("metrics/", "metrics"),
    ("faults.py", "faults"),
    ("harness/", "harness"),
    ("workloads/", "harness"),
    ("cli.py", "harness"),
    ("__init__.py", "harness"),
    ("__main__.py", "harness"),
)

#: functions that belong to another layer than their file: the
#: validation helpers of ``harness.runner`` are the oracle's glue
FUNCTION_OVERRIDES: Dict[Tuple[str, str], str] = {
    ("harness/runner.py", name): "engine.reference"
    for name in ("validate_results", "reference_rows", "compare_rows",
                 "canonical_row")
}

LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in RULES)) + ("numpy", "python")

#: layers that count towards ``trace.coverage``
NAMED_LAYERS = frozenset(LAYERS) - {"python"}

_REPRO_MARKER = "/repro/"
_NUMPY_MARKER = "/numpy/"

#: a cProfile function key: (filename, line, function name)
FuncKey = Tuple[str, int, str]


def owns(rule: str, relative_path: str) -> bool:
    """Whether ``rule`` (a directory ending in ``/``, or one file)
    claims ``relative_path``, both relative to ``src/repro``."""
    if rule.endswith("/"):
        return relative_path.startswith(rule)
    return relative_path == rule


def matching_rules(relative_path: str) -> List[str]:
    """Layers of every rule that claims ``relative_path``; exactly one
    for a mapped file."""
    return [layer for rule, layer in RULES if owns(rule, relative_path)]


def repro_relative(filename: str) -> str:
    """``filename`` relative to the ``repro`` package, or ``""``."""
    index = filename.rfind(_REPRO_MARKER)
    return filename[index + len(_REPRO_MARKER):] if index >= 0 else ""


def is_builtin(func: FuncKey) -> bool:
    return func[0] == "~"


def charged_to_caller(func: FuncKey) -> bool:
    """Whether ``func``'s self time belongs to whoever called it: a C
    builtin, or a special method (``__hash__``, ``__eq__``, ...) defined
    outside the program and numpy.  numpy's builtins keep their time."""
    filename, _, name = func
    if is_builtin(func):
        return "numpy" not in name
    return (name.startswith("__") and name.endswith("__")
            and not repro_relative(filename)
            and _NUMPY_MARKER not in filename)


def layer_of(func: FuncKey) -> str:
    """Layer of a profiled function that has a layer of its own (any
    Python function, and numpy's builtins)."""
    filename, _, name = func
    if is_builtin(func):
        return "numpy" if "numpy" in name else "python"
    relative = repro_relative(filename)
    if relative:
        override = FUNCTION_OVERRIDES.get((relative, name))
        if override is not None:
            return override
        matched = matching_rules(relative)
        if matched:
            return matched[0]
    if _NUMPY_MARKER in filename:
        return "numpy"
    return "python"


def _caller_layers(func: FuncKey, stats, memo,
                   active=None) -> Dict[str, float]:
    """Shares (summing to 1) of the layers a function's self time
    belongs to: its own layer, or (see :func:`charged_to_caller`) its
    callers', weighted by the self time spent under each caller.
    ``active`` guards against such functions calling each other in a
    cycle."""
    if not charged_to_caller(func):
        return {layer_of(func): 1.0}
    if func in memo:
        return memo[func]
    active = set() if active is None else active
    callers = stats[func][4] if func in stats else {}
    if not callers or func in active:
        return {"python": 1.0}
    active.add(func)
    weights = {caller: edge[2] for caller, edge in callers.items()}
    if sum(weights.values()) <= 0.0:
        weights = {caller: float(edge[1]) or 1.0
                   for caller, edge in callers.items()}
    total = sum(weights.values())
    shares: Dict[str, float] = defaultdict(float)
    for caller, weight in weights.items():
        for layer, share in _caller_layers(
                caller, stats, memo, active).items():
            shares[layer] += share * weight / total
    active.discard(func)
    memo[func] = dict(shares)
    return memo[func]


def _main_layer(func: FuncKey, stats, memo) -> str:
    """The layer most of ``func``'s self time went to."""
    shares = _caller_layers(func, stats, memo)
    return max(shares, key=shares.get)


def fold(stats: Dict[FuncKey, tuple]) -> dict:
    """Fold ``cProfile`` stats (``Profile.stats`` after
    ``create_stats()``) into layers.

    Returns ``{"total_s", "layers": {layer: {"self_s", "calls"}},
    "coverage", "edges": [{"caller", "callee", "cum_s", "calls"}],
    "numpy_by_caller": {layer: self_s}, "top_functions": [...]}``.
    Layer self times sum to ``total_s`` (the profile's total self time).
    ``calls`` counts the calls of the layer's own Python functions
    (numpy: its builtins too).  ``edges`` are the caller->callee links
    between different layers with the callee's cumulative seconds under
    that caller — the parent linkage of the trace; a builtin that calls
    back into Python (``sorted(key=...)``) stands in the layer most of
    its own time went to.  ``top_functions`` opens the layers up: the 40
    functions with the largest self time.
    """
    memo: dict = {}
    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
    edges: Dict[Tuple[str, str], List[float]] = defaultdict(
        lambda: [0.0, 0])
    numpy_by_caller: Dict[str, float] = defaultdict(float)
    total = 0.0
    for func, (_, ncalls, tottime, _, callers) in stats.items():
        total += tottime
        for layer, share in _caller_layers(func, stats, memo).items():
            self_s[layer] += tottime * share
        own = layer_of(func)
        if not is_builtin(func) or own == "numpy":
            calls[own] += ncalls
        for caller, edge in callers.items():
            caller_layer = _main_layer(caller, stats, memo)
            if own == "numpy" and caller_layer != "numpy":
                numpy_by_caller[caller_layer] += edge[2]
            if charged_to_caller(func):
                continue  # folded into the caller, not a layer boundary
            if caller_layer != own:
                link = edges[(caller_layer, own)]
                link[0] += edge[3]
                link[1] += edge[1]
    named = sum(self_s[layer] for layer in NAMED_LAYERS)
    return {
        "total_s": total,
        "layers": {layer: {"self_s": self_s[layer], "calls": calls[layer]}
                   for layer in LAYERS},
        "coverage": named / total if total > 0 else 0.0,
        "edges": [
            {"caller": caller, "callee": callee, "cum_s": link[0],
             "calls": link[1]}
            for (caller, callee), link in sorted(
                edges.items(), key=lambda item: -item[1][0])
        ],
        "numpy_by_caller": dict(numpy_by_caller),
        "top_functions": [
            {"function": "{}:{}:{}".format(
                repro_relative(func[0]) or func[0], func[1], func[2]),
             "layer": _main_layer(func, stats, memo),
             "self_s": entry[2], "cum_s": entry[3], "calls": entry[1]}
            for func, entry in sorted(
                stats.items(), key=lambda item: -item[1][2])[:40]
        ],
    }


def call_count(stats: Dict[FuncKey, tuple],
               targets: Iterable[Tuple[str, str]]) -> int:
    """Total calls of the ``(path relative to src/repro, function)``
    targets; a path ending in ``/`` matches every file below it."""
    return sum(entry[1] for _, entry in _select(stats, targets))


def cumulative_seconds(stats: Dict[FuncKey, tuple],
                       targets: Iterable[Tuple[str, str]]) -> float:
    """Total cumulative seconds of the targets (see :func:`call_count`)."""
    return sum(entry[3] for _, entry in _select(stats, targets))


def _select(stats, targets):
    targets = tuple(targets)
    for func, entry in stats.items():
        relative = repro_relative(func[0])
        if not relative:
            continue
        if any(name == func[2] and owns(path, relative)
               for path, name in targets):
            yield func, entry
