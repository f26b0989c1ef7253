"""The source rules: structural locks on the program, read from one
parse of the tree.

An :class:`Index` reads and parses each program file at most once and
builds once the maps several rules share.  A rule is a function of an
index that returns what breaks it, one string per offence, and holds
when it returns nothing.  The tier-1 tests hand the rules the session's
index of the tree (the ``source_index`` fixture); ``tests/test_rules.py``
hands each rule a small planted index that breaks it.

==========================  ============================================
rule                        holds when
==========================  ============================================
``field_callers``           every field of the four config classes has
                            the caller ``CALLERS`` lists.
``keyword_callers``         every keyword parameter of ``run_workload``
                            has the caller ``RUN_WORKLOAD`` lists.
``uncalled``                every public name of ``src/repro`` is used in
                            program code or listed in ``ALLOWED``.
``stale_allowances``        every ``ALLOWED`` name is still defined and
                            still has no program caller.
``unlisted_state``          the module-level names a workload moves, plus
                            every ``global`` rebind, are ``MODULE_STATE``.
``storage_imports_above``   no ``repro.storage`` module imports
                            ``engine``, ``core`` or ``harness`` at
                            module level.
``unreported_counts``       the names booked with ``count`` in ``src/``
                            are the names the collector's views select.
``collector_writes``        nothing outside ``src/repro/metrics/``
                            assigns through a ``metrics`` attribute.
``missing_profile_sites``   every function the e2e benchmark counts by
                            profile is defined where it looks.
``query_steps``             each step of a query's life has one call site
                            under ``harness/``, in ``QueryDriver``.
``attempt_sites``           ``DeviceLease`` and ``account_abort`` have
                            one call site each under ``engine/``, in
                            ``device_attempt``.
``asked_contexts``          no code under ``engine/`` or ``core/`` asks
                            whether a query has a context, save the
                            ``ENTRY_POINTS``.
``entry_point_defaults``    each entry point, and nothing else in its
                            module, defaults a missing context.
``type_tests``              no ``isinstance`` against an operator class
                            outside the module that defines it.
``morsel_computes``         ``engine/morsel.py`` evaluates, probes,
                            groups and aggregates nothing.
``chain_loops``             ``engine/morsel.py`` runs a chain in one
                            loop, each kernel called from one function.
``oracle_imports``          ``engine/reference.py`` imports no numpy and
                            nothing of ``repro`` but expression node
                            classes and ``repro.storage``.
``oracle_engine_paths``     ``engine/reference.py`` calls no
                            ``evaluate``, ``probe`` or ``gather``.
``oracle_state``            ``engine/reference.py`` keeps nothing
                            between calls: no mutable module-level
                            binding, no ``global``, no mutable default.
``dangling_citations``      every ``tests/<file>.py::<name>`` the docs
                            cite names a test, class or function there.
==========================  ============================================

``python tests/rules.py`` prints the config-field and ``run_workload``
table, one row per public name with its first program caller or its
``ALLOWED`` reason, docs/api.md's counter table, and one ``surface:``
line (:func:`surface_line`); it exits 1 when a doc cites a test that
does not exist.
"""

import ast
import collections
import dataclasses
import functools
import inspect
import io
import os
import re
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":  # a script reads the program of its checkout
    sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.cli import build_parser  # noqa: E402
from repro.engine import expressions  # noqa: E402
from repro.engine.execution import LifecycleConfig, QueryContext  # noqa: E402
from repro.engine.operators import PhysicalOperator  # noqa: E402
from repro.faults import FaultConfig  # noqa: E402
from repro.hardware import SystemConfig  # noqa: E402
from repro.harness import run_workload  # noqa: E402
from repro.harness.figures import CLAIMS  # noqa: E402
from repro.harness.service import ServiceConfig  # noqa: E402
from repro.metrics.collector import POOL_COUNTS  # noqa: E402
from repro.sim import Environment  # noqa: E402

PROGRAM = ("src", "benchmarks", "examples")
PACKAGE = os.path.join("src", "repro")
CLI = os.path.join("src", "repro", "cli.py")
SYSTEM = os.path.join("src", "repro", "hardware", "system.py")
EXPERIMENTS = os.path.join("src", "repro", "harness", "experiments.py")
PARALLEL = os.path.join("src", "repro", "harness", "parallel.py")
COLLECTOR = os.path.join(PACKAGE, "metrics", "collector.py")
MORSEL = os.path.join(PACKAGE, "engine", "morsel.py")
UNIT = os.path.join("benchmarks", "e2e", "unit.py")
REFERENCE = os.path.join(PACKAGE, "engine", "reference.py")
#: the documents whose test citations must resolve (a folder: its
#: ``.md`` files)
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs")
#: ``tests/<file>.py::<name>[::<name>]``
CITATION = re.compile(r"tests/\w+\.py(?:::\w+){1,2}")
#: test file -> the tests it makes at import time, which its tree does
#: not name
GENERATED = {
    "tests/test_paper_shapes.py": frozenset(
        "test_" + claim.name for claim in CLAIMS),
}


def _flags(**dests):
    return {field: ("flag", dest) for field, dest in dests.items()}


# -- what sets a config field or a run_workload keyword ---------------------
#
# A field with no caller outside the tests is set only by the tests that
# check the knob itself, and it doubles the configuration lattice for
# nothing.  The one field no program sets is listed with the golden test
# that moves a number with it.

#: class -> field -> (kind, where): kind "flag" names the CLI dest,
#: "call" a file under src/ or benchmarks/, "spec" a --faults spec
#: string, "test" the golden or ablation test that sets the field
CALLERS = {
    SystemConfig: {
        **_flags(gpu_count="gpus", gpu_memory_bytes="gpu_memory_gib",
                 gpu_cache_bytes="gpu_cache_gib", copy_engine="copy_engine",
                 split="split", split_ratio="split_ratio"),
        # the --coupled preset, SystemConfig.coupled_gpu
        "pcie_bandwidth_bytes_per_second": ("call", SYSTEM),
        "pcie_latency_seconds": ("call", SYSTEM),
        "coupled": ("call", SYSTEM),
        # App. A's engine comparison
        "profile": ("call", EXPERIMENTS),
    },
    FaultConfig: {
        field.name: ("spec", "{}={}".format(
            field.name, 0.5 if isinstance(field.default, float) else 2))
        for field in dataclasses.fields(FaultConfig)
    },
    LifecycleConfig: _flags(
        max_inflight="max_inflight", overload_policy="overload_policy",
        deadline_seconds="deadline"),
    ServiceConfig: {
        **_flags(duration_seconds="duration", arrivals="arrivals",
                 rate="rate", tenants_per_class="tenants",
                 max_inflight="max_inflight", deadline_seconds="deadline",
                 latency_target_seconds="target",
                 mutation_interval_seconds="mutation_interval",
                 append_fraction="append_fraction",
                 pool_chaos="pool_chaos", validate="no_validate",
                 seed="seed"),
        "starvation_seconds": (
            "test", "tests/test_driver_matrix.py::"
                    "test_run_matches_the_recording"),
    },
}

ROWS = [(cls, field, CALLERS[cls].get(field.name))
        for cls in CALLERS for field in dataclasses.fields(cls)]

#: run_workload keyword -> (kind, where), kinds as in CALLERS; "test"
#: names the one test that passes the keyword
RUN_WORKLOAD = {
    **_flags(users="users", repetitions="repetitions", warm_cache="cold",
             trace="trace"),
    "config": ("call", PARALLEL),
    "placement_policy": ("call", PARALLEL),
    "validate": ("call", PARALLEL),
    "faults": ("call", PARALLEL),
    "lifecycle": ("call", PARALLEL),
    # repro query
    "collect_results": ("call", CLI),
    # the paper's worker-width ablation
    "gpu_workers": (
        "test", "tests/test_chopping.py::test_ablation_gpu_worker_pool_width"),
    "algorithm_selection": (
        "test", "tests/test_algorithm_selection.py::"
                "test_ablation_algorithm_selection_on_and_off"),
}

KEYWORDS = [name for name, parameter
            in inspect.signature(run_workload).parameters.items()
            if parameter.default is not inspect.Parameter.empty]

# -- public names without a program caller -----------------------------------
#
# A ratchet, not a proof: identifiers are matched by spelling, so a dead
# name that shares its spelling with a live one (``run``, ``reset``),
# with a word used in a string, or with another definition (each
# module's ``reset_stats``) still passes.

#: public name (``module:Name`` or ``module:Class.member``) -> why it
#: stays without a program caller
ALLOWED = {
    "hardware.memory:DeviceHeap.live_allocations":
        "invariant accessor the heap tests read instead of private state",
    "hardware.memory:DeviceHeap.can_allocate":
        "invariant accessor the heap tests read instead of private state",
    "storage.epochs:EpochStore.live_epochs":
        "invariant accessor the epoch tests read instead of private state",
    "engine.execution.resilience:ResilienceManager.breaker_states":
        "invariant accessor the breaker tests read instead of private state",
    "engine.execution.lifecycle:AdmissionController.queue_depth":
        "invariant accessor the admission tests read instead of private "
        "state",
    "hype.models:LearnedCostModel.is_learned":
        "invariant accessor the cost-model tests read instead of private "
        "state",
    "hardware.processor:Processor.estimated_drain_seconds":
        "invariant accessor the processor tests read instead of private "
        "state",
    "storage.statistics:AccessStatistics.record_access":
        "invariant accessor the statistics tests drive instead of private "
        "state",
    "workloads.micro:parallel_selection_reference_predicate":
        "test oracle of the parallel selection workload",
    "engine.operators.scan:TidIntersect":
        "the only binary selection operator; conftest.random_selection_plan "
        "builds bushy plans from it",
    "metrics.collector:MetricsCollector.pool_summary":
        "view pinned by tests/golden/metrics_views.json",
    "metrics.collector:MetricsCollector.tail_latency_report":
        "view pinned by tests/golden/metrics_views.json",
    "storage.shm:export_count":
        "read by the shared-memory tests until the export path is reworked",
}

#: module-level names that hold state across calls (ROADMAP item 5
#: wants it emptied)
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

# -- one query driver, one device attempt ------------------------------------

#: the one call site per step of a query's life
ONE_SITE = ("QueryContext", "deadline_watchdog", "admit", "record_query",
            "record_cancelled_query")

#: the one site under src/repro/engine of each step of a device attempt
ONE_ATTEMPT = {
    "DeviceLease": ("engine/execution/operator_task.py", "device_attempt"),
    "account_abort": ("engine/execution/operator_task.py", "device_attempt"),
}

#: (module under src/repro, function) that may default a missing context
ENTRY_POINTS = {
    ("core/chopping.py", "ChoppingExecutor.submit"),
    ("engine/execution/eager.py", "run_plan_eager"),
}


class SourceFile:
    """A file's source, and each view of it the rules read, built at
    most once: its tree (each parse booked in ``parses``), its nodes,
    its nodes with the function they are in, and its stripped lines."""

    def __init__(self, path, source, parses):
        self.path, self.source, self._parses = path, source, parses

    @functools.cached_property
    def tree(self):
        self._parses[self.path] += 1
        return ast.parse(self.source, self.path)

    @functools.cached_property
    def nodes(self):
        """Every node of the tree, in ``ast.walk`` order."""
        return list(ast.walk(self.tree))

    @functools.cached_property
    def scoped(self):
        """``(qualified function name or "", node)`` for every node."""
        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope + [child.name] if isinstance(child, _DEFS) \
                    else scope
                yield ".".join(inner), child
                yield from walk(child, inner)
        return list(walk(self.tree, []))

    @functools.cached_property
    def lines(self):
        """The lines with docstrings, imports, ``__all__`` and comments
        blanked."""
        blank = set()
        for node in self.nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                blank.update(range(node.lineno, node.end_lineno + 1))
            elif isinstance(node, (ast.Assign, ast.AugAssign)) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in (node.targets if isinstance(node, ast.Assign)
                                   else [node.target])):
                blank.update(range(node.lineno, node.end_lineno + 1))
            if isinstance(node, (ast.Module,) + _DEFS) and node.body:
                first = node.body[0]
                if isinstance(first, ast.Expr) and isinstance(
                        first.value, ast.Constant) and isinstance(
                        first.value.value, str):
                    blank.update(range(first.lineno, first.end_lineno + 1))
        lines = ["" if number in blank else line
                 for number, line in enumerate(self.source.split("\n"), 1)]
        for token in tokenize.generate_tokens(
                io.StringIO(self.source).readline):
            if token.type == tokenize.COMMENT:
                row, col = token.start
                lines[row - 1] = lines[row - 1][:col]
        return lines


class Index:
    """The program's files by path from the repository root, each a
    :class:`SourceFile` read on first use, and the maps the rules share,
    each built once.  ``sources`` (``{path: text}``) stands in for the
    files on disk: a planted tree."""

    def __init__(self, sources=None):
        self._planted = sources is not None
        #: path -> times parsed, for the parse-once witness
        self.parses = collections.Counter()
        self._files = {path: SourceFile(path, text, self.parses)
                       for path, text in (sources or {}).items()}

    def __getitem__(self, path):
        if path not in self._files and not self._planted:
            with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
                self._files[path] = SourceFile(path, handle.read(),
                                               self.parses)
        return self._files[path]

    def exists(self, path):
        """Whether the file ``path`` is in the tree."""
        return path in self._files or (
            not self._planted and os.path.isfile(os.path.join(ROOT, path)))

    def documents(self):
        """The Markdown files of ``DOCS`` (a planted tree's ``.md``
        files)."""
        if self._planted:
            return [path for path in self._files if path.endswith(".md")]
        found = []
        for doc in DOCS:
            if doc.endswith(".md"):
                found.append(doc)
            else:
                found += [os.path.join(doc, name) for name in sorted(
                    os.listdir(os.path.join(ROOT, doc)))
                    if name.endswith(".md")]
        return found

    def files(self, top):
        """The ``.py`` files under ``top``, a folder's before its
        subfolders'."""
        if self._planted:
            return [path for path in self._files
                    if path.startswith(top + os.sep)]
        found = []
        for base, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(name for name in dirs if name != "__pycache__")
            found += [os.path.relpath(os.path.join(base, name), ROOT)
                      for name in sorted(names) if name.endswith(".py")]
        return found

    @functools.cached_property
    def uses(self):
        """identifier -> its first two uses in program code, as ``(file,
        line)``; one of them may be the name's own definition."""
        found = {}
        for top in PROGRAM:
            for path in self.files(top):
                for number, line in enumerate(self[path].lines, 1):
                    for word in re.findall(r"\w+", line):
                        seen = found.setdefault(word, [])
                        if len(seen) < 2:
                            seen.append((path, number))
        return found

    @functools.cached_property
    def public_names(self):
        """``module:Name`` / ``module:Class.member`` -> (identifier, the
        ``(file, line)`` of its definition), for every module-level
        function or class whose name does not start with ``_`` and each
        public method or property of such a class."""
        names = {}
        for path in self.files(PACKAGE):
            module = _dotted(path)[len("repro."):]
            for node in self[path].tree.body:
                if not isinstance(node, _DEFS) or node.name.startswith("_"):
                    continue
                names["{}:{}".format(module, node.name)] = (
                    node.name, (path, node.lineno))
                if isinstance(node, ast.ClassDef):
                    for member in node.body:
                        if isinstance(member, _FUNCTIONS) \
                                and not member.name.startswith("_"):
                            names["{}:{}.{}".format(
                                module, node.name, member.name)] = (
                                member.name, (path, member.lineno))
        return names

    @functools.cached_property
    def counted(self):
        """``{name: labels}`` of every booking in ``src/``: ``.count("x",
        label=...)`` calls (``**qctx.labels()`` stands for a query's
        labels), the pre-sorted key ``record_abort`` writes inline, and
        what the pool counts in ``self.counters["x"]`` (handed over
        whole by ``MorselPool.record_metrics``)."""
        query_labels = tuple(QueryContext(Environment(), "q").labels())
        names = {}
        for path in self.files(PACKAGE):
            for node in self[path].nodes:
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "count" and node.args
                        and _literal(node.args[0])):
                    labels = names.setdefault(_literal(node.args[0]), set())
                    for keyword in node.keywords:
                        labels.update(
                            query_labels if keyword.arg is None
                            else (keyword.arg,))
                elif (path == COLLECTOR and isinstance(node, ast.Tuple)
                      and len(node.elts) == 2 and _literal(node.elts[0])
                      and isinstance(node.elts[1], ast.Tuple)):
                    names.setdefault(_literal(node.elts[0]), set()).update(
                        _literal(pair.elts[0]) for pair in node.elts[1].elts)
                elif (path == PARALLEL and isinstance(node, ast.Subscript)
                      and isinstance(node.value, ast.Attribute)
                      and node.value.attr == "counters"
                      and _literal(node.slice)):
                    names.setdefault(_literal(node.slice), set())
        return names

    @functools.cached_property
    def selected(self):
        """``{name: views}``: the names the methods of the collector
        pass to ``total`` / ``by`` / ``_totals``, and ``POOL_COUNTS``."""
        names = {}
        for view in self[COLLECTOR].nodes:
            if not isinstance(view, ast.FunctionDef):
                continue
            for node in ast.walk(view):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("total", "by", "_totals")):
                    continue
                picked = (node.args if node.func.attr == "_totals"
                          else node.args[:1])
                for arg in picked:
                    if _literal(arg):
                        names.setdefault(_literal(arg), set()).add(view.name)
                    elif isinstance(arg, ast.Starred):
                        for name in POOL_COUNTS:
                            names.setdefault(name, set()).add(view.name)
        return names

    @functools.cached_property
    def functions(self):
        """``{path: names of the functions defined in it}`` under
        ``src/repro``."""
        return {path: {node.name for node in self[path].nodes
                       if isinstance(node, ast.FunctionDef)}
                for path in self.files(PACKAGE)}

    @functools.cached_property
    def bindings(self):
        """``{module: (names it binds at import time, names a function
        rebinds with global)}`` under ``src/repro``."""
        found = {}
        for path in self.files(PACKAGE):
            bound = set()
            for node in _top_level(self[path].tree.body):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                elif isinstance(node, _FUNCTIONS):
                    bound.add(node.name)
                    continue
                else:
                    continue
                bound.update(target.id for target in targets
                             if isinstance(target, ast.Name))
            rebound = {name for node in self[path].nodes
                       if isinstance(node, ast.Global) for name in node.names}
            module = _dotted(path)
            if module.endswith(".__init__"):
                module = module[:-len(".__init__")]
            found[module] = bound, rebound
        return found


# -- helpers -----------------------------------------------------------------

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCTIONS + (ast.ClassDef,)


def _dotted(path):
    """``repro.a.b`` for ``src/repro/a/b.py``."""
    return os.path.splitext(os.path.relpath(path, "src"))[0].replace(
        os.sep, ".")


def _modules(index, *packages):
    """``(path under src/repro, path)`` of every file of the packages."""
    for package in packages:
        top = os.path.normpath(os.path.join(PACKAGE, package))
        for path in index.files(top):
            yield os.path.relpath(path, PACKAGE), path


def _literal(node):
    return (node.value if isinstance(node, ast.Constant)
            and isinstance(node.value, str) else None)


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


def _called(node):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _keywords(nodes, name, call=None):
    """Every ``name=`` keyword argument of a call among ``nodes`` (of a
    call of the function ``call`` only, if given)."""
    return [keyword for node in nodes
            if isinstance(node, ast.Call)
            and call in (None, getattr(node.func, "id", None))
            for keyword in node.keywords if keyword.arg == name]


@functools.lru_cache(maxsize=None)
def _dests():
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    return frozenset(action.dest for sub in commands.values()
                     for action in sub._actions)


def _reads_args(node, dest):
    return any(isinstance(sub, ast.Attribute) and sub.attr == dest
               and isinstance(sub.value, ast.Name) and sub.value.id == "args"
               for sub in ast.walk(node))


def _sets(index, name, kind, where, call=None):
    """Whether the ``(kind, where)`` caller of a "flag", "call" or
    "test" row passes ``name=``: ``cli.py`` from the CLI dest ``where``,
    a call in the file ``where``, or the test ``where``.  With ``call``
    only calls of that function count, and the test must make one
    itself; a field's test may set it in a helper of its module."""
    if kind == "flag":
        return where in _dests() and any(
            _reads_args(keyword.value, where)
            for keyword in _keywords(index[CLI].nodes, name, call))
    if kind == "call":
        return where.startswith(("src", "benchmarks")) and bool(
            _keywords(index[where].nodes, name, call))
    if kind != "test":
        return False
    path, *scope = where.split("::")
    node = index[path].tree
    for part in scope:
        node = next((sub for sub in ast.walk(node)
                     if isinstance(sub, (ast.ClassDef, ast.FunctionDef))
                     and sub.name == part), None)
        if node is None:
            return False
    return bool(_keywords(ast.walk(node) if call else index[path].nodes,
                          name, call))


# -- the rules ---------------------------------------------------------------

def field_callers(index, rows=ROWS):
    """``Class.field`` of each of ``rows`` whose listed caller does not
    set it; a "spec" row's ``--faults`` string must move the field off
    its default."""
    unset = []
    for cls, field, caller in rows:
        if caller is not None and caller[0] == "spec":
            ok = "faults" in _dests() and getattr(
                cls.parse(caller[1]), field.name) != field.default
        else:
            ok = caller is not None and _sets(index, field.name, *caller)
        if not ok:
            unset.append("{}.{}".format(cls.__name__, field.name))
    return unset


def keyword_callers(index, keywords=KEYWORDS):
    """The ``run_workload`` keywords whose listed caller does not pass
    them to ``run_workload``."""
    return [keyword for keyword in keywords
            if not _sets(index, keyword, *RUN_WORKLOAD[keyword],
                         call="run_workload")]


def caller_rows(index):
    """(public name, ``file:line`` of its first caller in the program
    code of ``src/``, ``benchmarks/`` or ``examples/`` or None, its
    ``ALLOWED`` reason or None); a name's own definition is no caller."""
    rows = []
    for name, (word, definition) in sorted(index.public_names.items()):
        callers = list(index.uses.get(word, []))
        if definition in callers:
            callers.remove(definition)
        rows.append((name, "{}:{}".format(*callers[0]) if callers else None,
                     ALLOWED.get(name)))
    return rows


def uncalled(index):
    """Public names with no program caller and no ``ALLOWED`` reason."""
    return [name for name, caller, reason in caller_rows(index)
            if caller is None and reason is None]


def stale_allowances(index, allowed=ALLOWED):
    """``allowed`` names that are gone or now have a program caller."""
    callers = {name: caller for name, caller, _ in caller_rows(index)}
    return [name for name in allowed
            if name not in callers or callers[name] is not None]


def unlisted_state(index, moved=MODULE_STATE):
    """The names ``MODULE_STATE`` misses or lists in vain, given the
    module-level names a workload ``moved`` and every name a function
    rebinds with ``global``."""
    rebound = {"{}.{}".format(module, name)
               for module, (_, names) in index.bindings.items()
               for name in names}
    return sorted((set(moved) | rebound) ^ MODULE_STATE)


def storage_imports_above(index):
    """``module: import`` of every module-level import of ``engine``,
    ``core`` or ``harness`` in ``repro.storage``: storage is the bottom
    layer, what depends on it is imported inside a function."""
    above = ("repro.engine", "repro.core", "repro.harness")
    offenders = []
    for inside, path in _modules(index, "storage"):
        for node in _top_level(index[path].tree.body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += ["{}: {}".format(inside, name) for name in names
                          if name.startswith(above)]
    return offenders


def unreported_counts(index):
    """Names counted that no view reports, and names a view reports
    that nothing counts."""
    booked, reported = set(index.counted), set(index.selected)
    return (["counted, reported by no view: " + name
             for name in sorted(booked - reported)]
            + ["reported, counted by nothing: " + name
               for name in sorted(reported - booked)])


def counter_rows(index):
    """The rows of docs/api.md's counter table: name, labels, views."""
    rows = []
    for name in sorted(index.selected):
        labels = index.counted.get(name, set())
        views = set(index.selected[name])
        if "_ledger" in views:  # a ledger groups by a label it finds
            views.remove("_ledger")
            views.update(ledger for label, ledger in (
                ("slo_class", "slo_ledger"), ("tenant", "tenant_ledger"))
                if label in labels)
        rows.append("| `{}` | {} | {} |".format(
            name, ", ".join(sorted(labels)) or "—",
            ", ".join("`{}`".format(view) for view in sorted(views))))
    return rows


def _through_metrics(target):
    """Whether an assignment target reaches its object through a name
    or attribute called ``metrics`` (``x.metrics.f = ...``,
    ``metrics.f[k] += ...``; not ``self.metrics = ...`` itself)."""
    node = getattr(target, "value", None)
    while node is not None:
        if isinstance(node, ast.Name) and node.id == "metrics":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "metrics":
            return True
        node = getattr(node, "value", None)
    return False


def collector_writes(index):
    """``file:line`` of each assignment through a ``metrics`` attribute
    or subscript outside ``src/repro/metrics/``: a collector is written
    through its methods."""
    offenders = []
    for path in index.files(PACKAGE):
        if path.startswith(os.path.join(PACKAGE, "metrics") + os.sep):
            continue
        for node in index[path].nodes:
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            while targets:  # ``a, b.c = ...`` assigns to each element
                target = targets.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                elif _through_metrics(target):
                    offenders.append("{}:{}".format(path, node.lineno))
    return offenders


def profile_sites(index):
    """``(path under src/repro, function)`` of every function whose
    profile call count ``benchmarks/e2e/unit.py`` reads as an exact
    counter; a path ending in ``/`` is a folder."""
    declared = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in index[UNIT].tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("PROFILE_COUNTERS", "_RECORD_QUERY")
    }
    sites = list(declared["_RECORD_QUERY"])
    for counter_sites in declared["PROFILE_COUNTERS"].values():
        sites.extend(counter_sites)
    return sites


def missing_profile_sites(index):
    """``path: function`` of each profile-counted function not defined
    where the benchmark looks: renaming one would silently zero it."""
    missing = []
    for relative, function in profile_sites(index):
        defined = set()
        for path, names in index.functions.items():
            inside = os.path.relpath(path, PACKAGE)
            if (inside.startswith(relative) if relative.endswith("/")
                    else inside == relative):
                defined |= names
        if function not in defined:
            missing.append("{}: {}".format(relative, function))
    return missing


def call_sites(index, names, package):
    """``{name: [(path under src/repro, function, line)]}`` of every call
    of one of ``names`` under ``src/repro/<package>``."""
    sites = {name: [] for name in names}
    for inside, path in _modules(index, package):
        for scope, node in index[path].scoped:
            if isinstance(node, ast.Call) and _called(node) in sites:
                sites[_called(node)].append((inside, scope, node.lineno))
    return sites


def query_steps(index):
    """Each step of ``ONE_SITE`` with its sites under ``harness/``, if
    it has other than one, in ``QueryDriver`` of ``harness/runner.py``."""
    return ["{}: {}".format(name, where) for name, where
            in call_sites(index, ONE_SITE, "harness").items()
            if len(where) != 1 or (where[0][0], where[0][1].split(".")[0])
            != ("harness/runner.py", "QueryDriver")]


def attempt_sites(index):
    """Each step of ``ONE_ATTEMPT`` with its sites under ``engine/``, if
    it has other than its one."""
    return ["{}: {}".format(name, where) for name, where
            in call_sites(index, ONE_ATTEMPT, "engine").items()
            if [(path, scope) for path, scope, _ in where]
            != [ONE_ATTEMPT[name]]]


def _is_qctx(node):
    return ((isinstance(node, ast.Name) and node.id == "qctx")
            or (isinstance(node, ast.Attribute) and node.attr == "qctx"))


def context_tests(scoped):
    """``(function, line, what)`` wherever code asks whether a query has
    a context, among the ``(function, node)`` pairs ``scoped``."""
    for scope, node in scoped:
        if (isinstance(node, ast.Compare) and _is_qctx(node.left)
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None):
            yield scope, node.lineno, "qctx is (not) None"
        elif isinstance(node, (ast.If, ast.IfExp)) and _is_qctx(node.test):
            yield scope, node.lineno, "if qctx"
        elif isinstance(node, _FUNCTIONS):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional)
                                        - len(args.defaults):],
                             args.defaults))
            pairs += [(arg, default) for arg, default
                      in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
            for arg, default in pairs:
                if (arg.arg == "qctx" and isinstance(default, ast.Constant)
                        and default.value is None):
                    yield scope, node.lineno, "qctx=None default"


def asked_contexts(index):
    """``path:line function (what)`` wherever code under ``engine/`` or
    ``core/`` asks whether a query has a context, outside
    ``ENTRY_POINTS`` (which give a caller that brings no context a blank
    one)."""
    return ["{}:{} {} ({})".format(inside, line, scope, what)
            for inside, path in _modules(index, "engine", "core")
            for scope, line, what in context_tests(index[path].scoped)
            if (inside, scope) not in ENTRY_POINTS]


def entry_point_defaults(index, entries=ENTRY_POINTS):
    """The ``entries`` that do not default a missing context, or share
    that exemption with another function of their module."""
    broken = []
    for path, function in sorted(entries):
        scoped = index[os.path.join(PACKAGE, path)].scoped
        if {scope for scope, _, what in context_tests(scoped)
                if what == "qctx=None default"} != {function}:
            broken.append("{} {}".format(path, function))
    return broken


def operator_classes():
    """Every concrete operator class the program defines."""
    found, pending = [], [PhysicalOperator]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith("repro."):
                found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def type_tests(index, home=None):
    """``path:line isinstance(., Class)`` for each ``isinstance`` against
    an operator class (or a tuple of them) in ``src/repro`` outside the
    module that defines it: capability questions read the declaration.
    ``home`` maps a class name to that module (the program's classes by
    default)."""
    if home is None:
        home = {cls.__name__: cls.__module__ for cls in operator_classes()}

    def named(node, aliases):
        """Operator class names an expression mentions."""
        if isinstance(node, ast.Tuple):
            return [name for element in node.elts
                    for name in named(element, aliases)]
        name = getattr(node, "id", getattr(node, "attr", None))
        return aliases.get(name) or ([name] if name in home else [])

    offences = []
    for inside, path in _modules(index, ""):
        module = _dotted(path)
        # module-level tuples of classes, tested through their name
        aliases = {}
        for node in index[path].tree.body:
            if isinstance(node, ast.Assign) and named(node.value, {}):
                for target in node.targets:
                    aliases[target.id] = named(node.value, {})
        for node in index[path].nodes:
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", "") == "isinstance"
                    and len(node.args) == 2):
                offences += ["{}:{} isinstance(., {})".format(
                    inside, node.lineno, name)
                    for name in named(node.args[1], aliases)
                    if home[name] != module]
    return offences


def morsel_computes(index):
    """``line: call`` wherever ``engine/morsel.py`` evaluates an
    expression, probes an index, forms a group or an aggregate, or keeps
    a kind string of its own to pick a breaker by: it schedules and
    merges, every such call lives in an operator's chunk kernel (or, for
    a morsel's joins, in the kernel layer's chain kernel)."""
    offences = []
    for node in index[MORSEL].nodes:
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", "") in ("evaluate", "probe")):
            offences.append("{}: .{}()".format(node.lineno, node.func.attr))
        name = getattr(node, "attr", getattr(node, "id", ""))
        if (name in ("unique", "bincount", "reduce_groups",
                     "finish_aggregate") or name.endswith("_kind")):
            offences.append("{}: {}".format(node.lineno, name))
    return offences


def chain_loops(index):
    """The kernels ``engine/morsel.py`` calls from other functions than
    its one chain loop allows, with the functions that call them.

    A pool's chunk, the ``Limit`` prefix and a recording — from the scan
    or resumed after a recorded operator — all run the chain through
    ``_run``, over a whole row range: ``select`` is called in ``_enter``
    only (the masks of a range), the pipeline's chain kernel in ``_run``
    only (one call per range), and ``match`` in ``run_morsel`` only —
    the per-join loop over one morsel, the reference and ``_run``'s path
    where the kernel does not take every join; nothing else loops over
    the stages to probe."""
    callers = {}  # method called -> functions it is called from
    for function in index[MORSEL].nodes:
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", "")
                if getattr(getattr(node.func, "value", None), "attr",
                           "") == "chain":
                    name = "chain." + name
                callers.setdefault(name, []).append(function.name)
    if "_run" in callers:
        callers["_run"].sort()
    allowed = {"select": ["_enter"], "chain.run": ["_run"],
               "match": ["run_morsel"], "_enter": ["_run"],
               "run_morsel": ["_run"], "_run": ["batches", "run_recorded"]}
    return ["{}: {}".format(name, callers.get(name))
            for name, functions in allowed.items()
            if callers.get(name) != functions]


def _runtime_nodes(tree):
    """Every node of ``tree`` outside ``if TYPE_CHECKING:`` blocks."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _expression_class(name):
    node_class = getattr(expressions, name, None)
    return isinstance(node_class, type) and issubclass(
        node_class, expressions.Expression)


def oracle_imports(index):
    """``line: module`` of each import of ``engine/reference.py`` (outside
    ``if TYPE_CHECKING:``) of numpy, or of ``repro`` other than an
    expression node class or ``repro.storage``: the oracle shares no
    execution code with the engine it checks."""
    offences = []
    for node in _runtime_nodes(index[REFERENCE].tree):
        if isinstance(node, ast.Import):
            offences += ["{}: {}".format(node.lineno, alias.name)
                         for alias in node.names
                         if alias.name.split(".")[0] in ("numpy", "repro")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            top = module.split(".")[0]
            if top == "numpy" or (top == "repro" and module not in (
                    "repro.engine.expressions", "repro.storage")):
                offences.append("{}: {}".format(node.lineno, module))
            elif module == "repro.engine.expressions":
                offences += ["{}: {}.{}".format(node.lineno, module,
                                                alias.name)
                             for alias in node.names
                             if not _expression_class(alias.name)]
    return offences


def oracle_engine_paths(index):
    """``line: name`` wherever ``engine/reference.py`` names an
    ``evaluate``, ``probe`` or ``gather`` of the engine."""
    offences = []
    for node in index[REFERENCE].nodes:
        if (isinstance(node, ast.Attribute)
                and node.attr in ("evaluate", "probe", "gather")):
            offences.append("{}: .{}".format(node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id == "gather":
            offences.append("{}: gather".format(node.lineno))
    return offences


def _frozen(value):
    """Whether a module-level value is immutable: a constant, a tuple of
    constants, a ``MappingProxyType`` or a ``frozenset``."""
    return (isinstance(value, ast.Constant)
            or (isinstance(value, ast.Tuple) and all(
                isinstance(element, ast.Constant) for element in value.elts))
            or (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("MappingProxyType", "frozenset")))


def oracle_state(index):
    """``line: what`` of each mutable module-level binding, ``global``
    and default argument other than a constant in
    ``engine/reference.py``: every list and dict lives and dies in one
    call."""
    tree = index[REFERENCE].tree
    offences = ["{}: module-level binding".format(node.lineno)
                for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign,
                                     ast.AugAssign))
                and not _frozen(node.value)]
    for node in index[REFERENCE].nodes:
        if isinstance(node, ast.Global):
            offences.append("{}: global".format(node.lineno))
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            offences += ["{}: default".format(node.lineno)
                         for default in (node.args.defaults
                                         + node.args.kw_defaults)
                         if default is not None
                         and not isinstance(default, ast.Constant)]
    return offences


def _matches(name, cited):
    """Whether ``cited`` names ``name``; ending in ``_``, it is a
    prefix."""
    return name.startswith(cited) if cited.endswith("_") else name == cited


def _defines(tree, names, generated):
    """Whether ``tree`` defines a function or class ``names[0]`` with
    ``names[1]`` inside it, or ``names`` is one of the ``generated``
    tests."""
    if len(names) == 1 and any(_matches(name, names[0])
                               for name in generated):
        return True
    scopes = [tree]
    for cited in names:
        scopes = [node for scope in scopes
                  for child in ast.iter_child_nodes(scope)
                  for node in ast.walk(child)
                  if isinstance(node, _DEFS) and _matches(node.name, cited)]
    return bool(scopes)


def dangling_citations(index):
    """``doc:line citation`` of each ``tests/<file>.py::<name>`` in the
    ``DOCS`` that names no function or class of that file."""
    offences = []
    for doc in index.documents():
        for number, line in enumerate(index[doc].source.split("\n"), 1):
            for citation in CITATION.findall(line):
                path, *names = citation.split("::")
                if not (index.exists(path) and _defines(
                        index[path].tree, names, GENERATED.get(path, ()))):
                    offences.append("{}:{} {}".format(doc, number,
                                                      citation))
    return offences


def config_table():
    """One row per config field and ``run_workload`` keyword: class,
    field, default, caller."""
    lines = ["{:16s} {:32s} {:24s} {}".format(
        "class", "field", "default", "caller")]
    for cls, field, caller in ROWS:
        default = (field.default if field.default is not dataclasses.MISSING
                   else field.default_factory())
        text = repr(default)
        if len(text) > 24:
            text = type(default).__name__
        lines.append("{:16s} {:32s} {:24s} {}".format(
            cls.__name__, field.name, text,
            "{} {}".format(*caller) if caller else "-"))
    lines.append("{} fields".format(len(ROWS)))
    for keyword in KEYWORDS:
        lines.append("{:16s} {:32s} {:24s} {} {}".format(
            "run_workload", keyword, "", *RUN_WORKLOAD[keyword]))
    lines.append("{} run_workload keywords".format(len(KEYWORDS)))
    return "\n".join(lines)


def _module_path(obj):
    """The file under ``src/`` that defines ``obj``."""
    return os.path.join("src", *obj.__module__.split(".")) + ".py"


def surface_line(index):
    """``surface: name=count ...``: the fields of each config class and
    their total, the ``add_argument`` calls of the CLI and the keywords
    of ``run_workload``, counted in the index's trees, then the
    ``MODULE_STATE`` names and ``ALLOWED`` entries of this rulebook."""
    counts = {}
    for cls in CALLERS:
        body = next(node for node in index[_module_path(cls)].tree.body
                    if isinstance(node, ast.ClassDef)
                    and node.name == cls.__name__).body
        counts[cls.__name__] = sum(
            isinstance(node, ast.AnnAssign) for node in body)
    counts["config_fields"] = sum(counts.values())
    counts["add_argument"] = sum(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument" for node in index[CLI].nodes)
    runner = next(node for node in index[_module_path(run_workload)].nodes
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "run_workload")
    counts["run_workload_keywords"] = len(runner.args.defaults) + sum(
        default is not None for default in runner.args.kw_defaults)
    counts["MODULE_STATE"] = len(MODULE_STATE)
    counts["ALLOWED"] = len(ALLOWED)
    return "surface: " + " ".join(
        "{}={}".format(name, count) for name, count in counts.items())


if __name__ == "__main__":
    index = Index()
    print(config_table())
    for name, caller, reason in caller_rows(index):
        if caller is None:
            caller = "ALLOWED: {}".format(reason) if reason else "NO CALLER"
        print("{:64s} {}".format(name, caller))
    print("| name | labels | reported by |")
    print("|---|---|---|")
    print("\n".join(counter_rows(index)))
    dangling = dangling_citations(index)
    for citation in dangling:
        print("cites no test: " + citation, file=sys.stderr)
    print(surface_line(index))
    sys.exit(1 if dangling else 0)
