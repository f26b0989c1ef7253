"""Every public name of ``src/repro`` has a program caller.

A public name is a module-level function or class of ``src/repro`` whose
name does not start with ``_``, or a public method or property of such a
class.  Its caller is any use of the identifier in the program code of
``src/``, ``benchmarks/`` or ``examples/``: one ``\\w+`` pass over those
files with their docstrings, comments, imports and ``__all__`` blanked
out, in which the name's own ``def`` / ``class`` line does not count.
A name that only its own unit tests reach is either deleted or listed
in ``ALLOWED`` with the reason it stays; ``test_no_stale_allowance``
fails when a listed name gains a caller or goes away.

This is a ratchet, not a proof: identifiers are matched by spelling, so
a dead name that shares its spelling with a live one (``run``,
``reset``), with a word used in a string, or with another definition
(each module's ``reset_stats``) still passes.

``python tests/test_callers.py`` prints one row per public name: its
first program caller (``file:line``) or its ``ALLOWED`` reason.
"""

import ast
import io
import os
import re
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "repro")
PROGRAM = ("src", "benchmarks", "examples")

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


def _python_files(top):
    for base, dirs, files in os.walk(os.path.join(ROOT, top)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(base, name), ROOT)


def _read(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
        return handle.read()


def _stripped_lines(source):
    """``source`` split in lines, with docstrings, imports, ``__all__``
    and comments blanked."""
    lines = source.split("\n")
    tree = ast.parse(source)
    blank = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            blank.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.Assign, ast.AugAssign)) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])):
            blank.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                blank.update(range(first.lineno, first.end_lineno + 1))
    lines = ["" if number in blank else line
             for number, line in enumerate(lines, 1)]
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            row, col = token.start
            lines[row - 1] = lines[row - 1][:col]
    return lines


def uses():
    """identifier -> its first two uses in program code, as
    ``(file, line)``; one of them may be the name's own definition."""
    found = {}
    for top in PROGRAM:
        for path in _python_files(top):
            for number, line in enumerate(_stripped_lines(_read(path)), 1):
                for word in re.findall(r"\w+", line):
                    seen = found.setdefault(word, [])
                    if len(seen) < 2:
                        seen.append((path, number))
    return found


def public_names():
    """``module:Name`` / ``module:Class.member`` -> (identifier, the
    ``(file, line)`` of its definition)."""
    names = {}
    for path in _python_files(PACKAGE):
        module = os.path.splitext(os.path.relpath(path, PACKAGE))[0]
        module = module.replace(os.sep, ".")
        for node in ast.parse(_read(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            names["{}:{}".format(module, node.name)] = (
                node.name, (path, node.lineno))
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)) \
                            and not member.name.startswith("_"):
                        names["{}:{}.{}".format(
                            module, node.name, member.name)] = (
                            member.name, (path, member.lineno))
    return names


def rows():
    """(public name, ``file:line`` of its first caller or None, ALLOWED
    reason or None)."""
    found = uses()
    table = []
    for name, (word, definition) in sorted(public_names().items()):
        callers = list(found.get(word, []))
        if definition in callers:
            callers.remove(definition)
        caller = "{}:{}".format(*callers[0]) if callers else None
        table.append((name, caller, ALLOWED.get(name)))
    return table


def test_every_public_name_has_a_program_caller():
    dead = [name for name, caller, reason in rows()
            if caller is None and reason is None]
    assert not dead, "no caller in src/, benchmarks/ or examples/: {}".format(
        ", ".join(dead))


def test_no_stale_allowance():
    found = {name: caller for name, caller, _ in rows()}
    stale = [name for name in ALLOWED
             if name not in found or found[name] is not None]
    assert not stale, "ALLOWED entries that are gone or now have a " \
        "caller: {}".format(", ".join(stale))


def test_every_allowance_gives_a_reason():
    assert len(ALLOWED) <= 15
    assert all(reason.strip() for reason in ALLOWED.values())


if __name__ == "__main__":
    for name, caller, reason in rows():
        if caller is None:
            caller = "ALLOWED: {}".format(reason) if reason else "NO CALLER"
        print("{:64s} {}".format(name, caller))
