"""One query driver, and a context for every query: ``ast`` guards.

* Under ``src/repro/harness/`` each step of a query's life has exactly
  one call site: the context is built, the deadline watchdog started,
  admission asked, and a completion or a cancel booked in one place
  (``QueryDriver`` in ``harness/runner.py``).
* Under ``src/repro/engine/`` and ``src/repro/core/`` no code asks
  whether a query has a context: no ``qctx is None`` / ``is not None``,
  no ``... if qctx else ...``, no ``qctx=None`` default — except at the
  executors' public entry points, which give a caller that brings no
  context a blank one.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "repro")

#: the one call site per step of a query's life
ONE_SITE = ("QueryContext", "deadline_watchdog", "admit", "record_query",
            "record_cancelled_query")

#: (module under src/repro, function) that may default a missing context
ENTRY_POINTS = {
    ("core/chopping.py", "ChoppingExecutor.submit"),
    ("engine/execution/eager.py", "run_plan_eager"),
    ("engine/execution/vectorized.py", "VectorizedExecutor.submit"),
}


def _modules(*packages):
    for package in packages:
        root = os.path.join(SRC, package)
        for folder, _, files in os.walk(root):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path) as handle:
                        tree = ast.parse(handle.read(), path)
                    yield os.path.relpath(path, SRC), tree


def _scoped(tree):
    """``(qualified function name or "", node)`` for every node."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + [child.name]
            yield ".".join(inner), child
            yield from walk(child, inner)
    yield from walk(tree, [])


def _called(node):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_qctx(node):
    return ((isinstance(node, ast.Name) and node.id == "qctx")
            or (isinstance(node, ast.Attribute) and node.attr == "qctx"))


def _context_tests(tree):
    """``(function, line, what)`` wherever code asks whether a query has
    a context."""
    for scope, node in _scoped(tree):
        if (isinstance(node, ast.Compare) and _is_qctx(node.left)
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None):
            yield scope, node.lineno, "qctx is (not) None"
        elif isinstance(node, (ast.If, ast.IfExp)) and _is_qctx(node.test):
            yield scope, node.lineno, "if qctx"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
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


def test_each_step_of_a_query_has_one_site_in_the_harness():
    sites = {name: [] for name in ONE_SITE}
    for path, tree in _modules("harness"):
        for scope, node in _scoped(tree):
            if isinstance(node, ast.Call) and _called(node) in sites:
                sites[_called(node)].append((path, scope, node.lineno))
    for name, where in sites.items():
        assert len(where) == 1, (name, where)
        path, scope, _ = where[0]
        assert (path, scope.split(".")[0]) == (
            "harness/runner.py", "QueryDriver"), (name, where)


def test_no_engine_code_asks_whether_a_query_has_a_context():
    found = []
    for path, tree in _modules("engine", "core"):
        for scope, line, what in _context_tests(tree):
            if (path, scope) not in ENTRY_POINTS:
                found.append("{}:{} {} ({})".format(path, line, scope, what))
    assert found == []


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_the_entry_points_default_a_missing_context(entry):
    """The exemption list is exact: each entry point still takes an
    optional context (and nothing else in its module is exempt)."""
    path, function = entry
    with open(os.path.join(SRC, path)) as handle:
        tree = ast.parse(handle.read())
    scopes = {scope for scope, _, what in _context_tests(tree)
              if what == "qctx=None default"}
    assert scopes == {function}


def test_the_guard_sees_the_patterns_it_forbids():
    tree = ast.parse(
        "class A:\n"
        "    def f(self, qctx=None):\n"
        "        if qctx is not None:\n"
        "            pass\n"
        "        return 1 if self.qctx else 0\n"
        "def g(*, qctx=None):\n"
        "    if qctx:\n"
        "        return qctx is None\n")
    assert sorted((scope, what) for scope, _, what
                  in _context_tests(tree)) == [
        ("A.f", "if qctx"), ("A.f", "qctx is (not) None"),
        ("A.f", "qctx=None default"), ("g", "if qctx"),
        ("g", "qctx is (not) None"), ("g", "qctx=None default")]
