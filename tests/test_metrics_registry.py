"""What is counted is what is reported, and nobody else writes.

Three ``ast`` guards over the source tree (no imports of the scanned
modules, in the style of the operator-declaration guard of
``tests/test_operators.py``):

* the literal names booked with ``MetricsCollector.count`` anywhere in
  ``src/`` equal the names the views of ``metrics/collector.py`` select
  — an event nobody reports, or a report nothing feeds, fails;
* no statement outside ``src/repro/metrics/`` assigns through a
  ``metrics`` attribute or subscript: a collector is written through
  its methods;
* every ``(path, function)`` whose *profile call count* the e2e
  benchmark reads as an exact counter (``benchmarks/e2e/unit.py``) is a
  function defined in that file — renaming one would silently zero it.

``PYTHONPATH=src:. python tests/test_metrics_registry.py`` prints the
name / labels / view table of docs/api.md.
"""

import ast
import os

from repro.engine.execution import QueryContext
from repro.metrics.collector import POOL_COUNTS
from repro.sim import Environment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
COLLECTOR = os.path.join(SRC, "metrics", "collector.py")
POOL = os.path.join(SRC, "harness", "parallel.py")

#: the labels of a booking written ``count(name, **qctx.labels())``
QUERY_LABELS = tuple(QueryContext(Environment(), "q").labels())


def _sources():
    for folder, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as handle:
                    yield path, ast.parse(handle.read(), path)


def _literal(node):
    return (node.value if isinstance(node, ast.Constant)
            and isinstance(node.value, str) else None)


def counted():
    """``{name: labels}`` of every booking in ``src/``: ``.count("x",
    label=...)`` calls, the pre-sorted key ``record_abort`` writes
    inline, and what the pool counts in ``self.counters["x"]`` (handed
    over whole by ``MorselPool.record_metrics``)."""
    names = {}
    for path, tree in _sources():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "count" and node.args
                    and _literal(node.args[0])):
                labels = names.setdefault(_literal(node.args[0]), set())
                for keyword in node.keywords:
                    labels.update(
                        QUERY_LABELS if keyword.arg is None
                        else (keyword.arg,))
            elif (path == COLLECTOR and isinstance(node, ast.Tuple)
                  and len(node.elts) == 2 and _literal(node.elts[0])
                  and isinstance(node.elts[1], ast.Tuple)):
                names.setdefault(_literal(node.elts[0]), set()).update(
                    _literal(pair.elts[0]) for pair in node.elts[1].elts)
            elif (path == POOL and isinstance(node, ast.Subscript)
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "counters"
                  and _literal(node.slice)):
                names.setdefault(_literal(node.slice), set())
    return names


def selected():
    """``{name: views}``: the names the methods of the collector pass to
    ``total`` / ``by`` / ``_totals``, and ``POOL_COUNTS``."""
    with open(COLLECTOR) as handle:
        tree = ast.parse(handle.read())
    names = {}
    for view in ast.walk(tree):
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


def test_every_counted_name_is_reported_and_every_report_is_fed():
    booked, reported = set(counted()), set(selected())
    assert len(booked) > 40
    assert booked - reported == set(), "counted, reported by no view"
    assert reported - booked == set(), "reported, counted by nothing"


def test_the_api_doc_lists_every_count():
    with open(os.path.join(ROOT, "docs", "api.md")) as handle:
        text = handle.read()
    for row in table():
        assert row in text, row


def table():
    """The rows of docs/api.md's table: name, labels, views."""
    booked, reported = counted(), selected()
    rows = []
    for name in sorted(reported):
        labels, views = booked.get(name, set()), set(reported[name])
        if "_ledger" in views:  # a ledger groups by a label it finds
            views.remove("_ledger")
            views.update(ledger for label, ledger in (
                ("slo_class", "slo_ledger"), ("tenant", "tenant_ledger"))
                if label in labels)
        rows.append("| `{}` | {} | {} |".format(
            name, ", ".join(sorted(labels)) or "—",
            ", ".join("`{}`".format(view) for view in sorted(views))))
    return rows


def _through_metrics(target) -> bool:
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


def test_nothing_outside_the_package_writes_to_a_collector():
    offenders = []
    for path, tree in _sources():
        if path.startswith(os.path.join(SRC, "metrics") + os.sep):
            continue
        for node in ast.walk(tree):
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
                    offenders.append("{}:{}".format(
                        os.path.relpath(path, ROOT), node.lineno))
    assert offenders == []


def test_profile_counted_functions_exist_where_the_benchmark_looks():
    unit = os.path.join(ROOT, "benchmarks", "e2e", "unit.py")
    with open(unit) as handle:
        tree = ast.parse(handle.read())
    declared = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("PROFILE_COUNTERS", "_RECORD_QUERY")
    }
    sites = list(declared["_RECORD_QUERY"])
    for counter_sites in declared["PROFILE_COUNTERS"].values():
        sites.extend(counter_sites)
    assert len(sites) >= 10
    for relative, function in sites:
        defined = set()
        for path, module in _sources():
            inside = os.path.relpath(path, SRC)
            if (inside.startswith(relative) if relative.endswith("/")
                    else inside == relative):
                defined.update(
                    node.name for node in ast.walk(module)
                    if isinstance(node, ast.FunctionDef))
        assert function in defined, (relative, function)


if __name__ == "__main__":
    print("| name | labels | reported by |")
    print("|---|---|---|")
    print("\n".join(table()))
