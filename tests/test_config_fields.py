"""Every config field has a caller, listed mechanically.

Each field of the four config classes maps to what sets it outside the
tests: a CLI flag (its ``dest``), a call site under ``src/`` or
``benchmarks/`` that passes it by keyword, or a ``--faults`` spec
string.  A field with none of these is set only by the tests that check
the knob itself, and it doubles the configuration lattice for nothing.
The one field no program sets is listed with the golden test that
moves a number with it.  Adding a field without an entry here fails
tier-1.

``run_workload``'s keyword parameters are locked the same way: each
maps to a CLI flag its ``run_workload`` call reads, a ``src/`` or
``benchmarks/`` call of ``run_workload`` that passes it, or the one
test that needs it.

``python tests/test_config_fields.py`` prints the table (class, field,
default, caller).
"""

import ast
import dataclasses
import inspect
import os

import pytest

from repro.cli import build_parser
from repro.engine.execution import LifecycleConfig
from repro.faults import FaultConfig
from repro.hardware import SystemConfig
from repro.harness import run_workload
from repro.harness.service import ServiceConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI = os.path.join("src", "repro", "cli.py")
SYSTEM = os.path.join("src", "repro", "hardware", "system.py")
EXPERIMENTS = os.path.join("src", "repro", "harness", "experiments.py")
PARALLEL = os.path.join("src", "repro", "harness", "parallel.py")


def _flags(**dests):
    return {field: ("flag", dest) for field, dest in dests.items()}


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
        deadline_seconds="deadline", hedge_factor="hedge_factor"),
    ServiceConfig: {
        **_flags(duration_seconds="duration", arrivals="arrivals",
                 rate="rate", tenants_per_class="tenants",
                 max_inflight="max_inflight", deadline_seconds="deadline",
                 latency_target_seconds="target",
                 hedge_factor="hedge_factor",
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
    # the vectorized extension (Sec. 5.5)
    "processing_model": (
        "test", "tests/test_vectorized.py::"
                "test_extension_operator_vs_vector_at_a_time"),
    "algorithm_selection": (
        "test", "tests/test_algorithm_selection.py::"
                "test_ablation_algorithm_selection_on_and_off"),
}

KEYWORDS = [name for name, parameter
            in inspect.signature(run_workload).parameters.items()
            if parameter.default is not inspect.Parameter.empty]


def _tree(path):
    with open(os.path.join(ROOT, path)) as handle:
        return ast.parse(handle.read())


def _keywords(tree, name):
    """Every ``name=`` keyword argument of a call in ``tree``."""
    return [keyword for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for keyword in node.keywords if keyword.arg == name]


def _run_workload_keywords(tree, name):
    """Every ``name=`` keyword argument of a ``run_workload`` call."""
    return [keyword for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "run_workload"
            for keyword in node.keywords if keyword.arg == name]


def _declared_dests():
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    return {action.dest for sub in commands.values()
            for action in sub._actions}


def _reads_args(node, dest):
    return any(isinstance(sub, ast.Attribute) and sub.attr == dest
               and isinstance(sub.value, ast.Name) and sub.value.id == "args"
               for sub in ast.walk(node))


def test_every_field_is_listed():
    for cls, callers in CALLERS.items():
        assert sorted(callers) == sorted(
            field.name for field in dataclasses.fields(cls)), cls.__name__


def test_field_counts():
    assert {cls.__name__: len(dataclasses.fields(cls)) for cls in CALLERS} \
        == {"FaultConfig": 17, "LifecycleConfig": 4, "ServiceConfig": 14,
            "SystemConfig": 10}


@pytest.mark.parametrize(
    "cls,field,caller", ROWS,
    ids=["{}.{}".format(cls.__name__, field.name) for cls, field, _ in ROWS])
def test_field_has_its_caller(cls, field, caller):
    assert caller is not None, "no caller listed"
    kind, where = caller
    if kind == "flag":
        assert where in _declared_dests()
        assert any(_reads_args(keyword.value, where)
                   for keyword in _keywords(_tree(CLI), field.name))
    elif kind == "call":
        assert where.startswith(("src", "benchmarks"))
        assert _keywords(_tree(where), field.name)
    elif kind == "spec":
        assert getattr(cls.parse(where), field.name) != field.default
        assert "faults" in _declared_dests()
    else:
        assert kind == "test"
        path, *scope = where.split("::")
        module = node = _tree(path)
        for name in scope:
            node = next((sub for sub in ast.walk(node)
                         if isinstance(sub, (ast.ClassDef, ast.FunctionDef))
                         and sub.name == name), None)
            assert node is not None, "no test {}".format(where)
        assert _keywords(module, field.name)


def test_every_run_workload_keyword_is_listed():
    assert sorted(RUN_WORKLOAD) == sorted(KEYWORDS)


@pytest.mark.parametrize("keyword", KEYWORDS)
def test_run_workload_keyword_has_its_caller(keyword):
    kind, where = RUN_WORKLOAD[keyword]
    if kind == "flag":
        assert where in _declared_dests()
        assert any(_reads_args(node.value, where) for node in
                   _run_workload_keywords(_tree(CLI), keyword))
    elif kind == "call":
        assert where.startswith(("src", "benchmarks"))
        assert _run_workload_keywords(_tree(where), keyword)
    else:
        assert kind == "test"
        path, name = where.split("::")
        test = next((node for node in ast.walk(_tree(path))
                     if isinstance(node, ast.FunctionDef)
                     and node.name == name), None)
        assert test is not None, "no test {}".format(where)
        assert _run_workload_keywords(test, keyword)


def table():
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


if __name__ == "__main__":
    print(table())
