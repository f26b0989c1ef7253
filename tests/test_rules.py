"""Each rule of ``tests/rules.py`` reports a violation planted in a
small in-memory tree, docs/api.md's counter table is the one the rules
generate, and no file is parsed twice in a session."""

import argparse
import ast
import dataclasses
import functools
import os
import sys

import pytest

from repro import cli
from tests import rules

_FIELD = [row for row in rules.ROWS if row[1].name == "coupled"]

#: (rule, planted files, what the rule reports): one violation each
PLANTED = {
    "a field with no caller": (
        functools.partial(rules.field_callers, rows=_FIELD),
        {rules.SYSTEM: "SystemConfig(split=True)\n"},
        ["SystemConfig.coupled"]),
    "a run_workload keyword with no caller": (
        functools.partial(rules.keyword_callers, keywords=["faults"]),
        {rules.PARALLEL: "run_workload(db, queries)\n"}, ["faults"]),
    "a public name with no caller": (
        rules.uncalled, {"src/repro/m.py": "def orphan():\n    pass\n"},
        ["m:orphan"]),
    "a stale ALLOWED entry": (
        functools.partial(rules.stale_allowances, allowed={"m:f": "why"}),
        {"src/repro/m.py": "def f():\n    pass\n\n\nf()\n"}, ["m:f"]),
    "an unlisted module-level global": (
        rules.unlisted_state,
        {"src/repro/m.py": "def f():\n    global cache\n"},
        ["repro.m.cache"]),
    "a storage module importing the engine": (
        rules.storage_imports_above,
        {"src/repro/storage/m.py": "import repro.engine\n"},
        ["storage/m.py: repro.engine"]),
    "a count no view reports": (
        rules.unreported_counts,
        {rules.COLLECTOR: "", "src/repro/m.py": "metrics.count('x')\n"},
        ["counted, reported by no view: x"]),
    "a view name nothing counts": (
        rules.unreported_counts,
        {rules.COLLECTOR: "def view(self):\n    return self.total('y')\n"},
        ["reported, counted by nothing: y"]),
    "a collector written from outside metrics/": (
        rules.collector_writes, {"src/repro/m.py": "x.metrics.y = 1\n"},
        ["src/repro/m.py:1"]),
    "a profile-counted function gone": (
        rules.missing_profile_sites,
        {rules.UNIT: "PROFILE_COUNTERS = {'c': [('m.py', 'gone')]}\n"
                     "_RECORD_QUERY = [('m.py', 'kept')]\n",
         "src/repro/m.py": "def kept():\n    pass\n"},
        ["m.py: gone"]),
    "a second admission site": (
        rules.query_steps,
        {"src/repro/harness/runner.py":
            "class QueryDriver:\n    def run(self):\n"
            "        QueryContext()\n        deadline_watchdog()\n"
            "        admit()\n        record_query()\n"
            "        record_cancelled_query()\n",
         "src/repro/harness/service.py": "def serve(c):\n    c.admit()\n"},
        ["admit: [('harness/runner.py', 'QueryDriver.run', 5), "
         "('harness/service.py', 'serve', 2)]"]),
    "a second DeviceLease site": (
        rules.attempt_sites,
        {"src/repro/engine/execution/operator_task.py":
            "def device_attempt():\n    DeviceLease()\n"
            "    account_abort()\n",
         "src/repro/engine/split.py": "def share():\n    DeviceLease()\n"},
        ["DeviceLease: [('engine/execution/operator_task.py', "
         "'device_attempt', 2), ('engine/split.py', 'share', 2)]"]),
    "an engine function asking for a context": (
        rules.asked_contexts,
        {"src/repro/core/m.py": "def f(qctx):\n    if qctx:\n"
                                "        pass\n"},
        ["core/m.py:2 f (if qctx)"]),
    "an entry point that no longer defaults a context": (
        functools.partial(rules.entry_point_defaults,
                          entries=[("core/m.py", "submit")]),
        {"src/repro/core/m.py": "def submit(qctx):\n    pass\n"},
        ["core/m.py submit"]),
    "an isinstance against HashJoin outside its module": (
        functools.partial(rules.type_tests,
                          home={"HashJoin": "repro.engine.operators.join"}),
        {"src/repro/m.py": "isinstance(op, HashJoin)\n"},
        ["m.py:1 isinstance(., HashJoin)"]),
    "an evaluate in morsel.py": (
        rules.morsel_computes, {rules.MORSEL: "x.evaluate()\n"},
        ["1: .evaluate()"]),
    "a second caller of match in morsel.py": (
        rules.chain_loops,
        {rules.MORSEL: "def _enter(self):\n    self.select()\n"
                       "def _run(self):\n    self.chain.run()\n"
                       "    self._enter()\n    self.run_morsel()\n"
                       "def run_morsel(self):\n    self.match()\n"
                       "def batches(self):\n    self._run()\n"
                       "    self.match()\n"
                       "def run_recorded(self):\n    self._run()\n"},
        ["match: ['run_morsel', 'batches']"]),
    "an oracle importing numpy": (
        rules.oracle_imports,
        {rules.REFERENCE: "from repro.storage import Database\n"
                          "import numpy as np\n"},
        ["2: numpy"]),
    "an oracle calling the engine's probe": (
        rules.oracle_engine_paths,
        {rules.REFERENCE: "def f(index, keys):\n"
                          "    return index.probe(keys)\n"},
        ["2: .probe"]),
    "an oracle keeping a dict between calls": (
        rules.oracle_state,
        {rules.REFERENCE: "_OPS = MappingProxyType({})\n_SEEN = {}\n"},
        ["2: module-level binding"]),
    "a doc citing a test that is gone": (
        rules.dangling_citations,
        {"docs/m.md": "`tests/test_m.py::TestA::test_b`, "
                      "`tests/test_m.py::test_kept_`,\n"
                      "`tests/test_m.py::test_gone`\n",
         "tests/test_m.py": "class TestA:\n    def test_b(self):\n"
                            "        pass\ndef test_kept_here():\n"
                            "    pass\n"},
        ["docs/m.md:2 tests/test_m.py::test_gone"]),
}


@pytest.mark.parametrize("rule,sources,reported", PLANTED.values(),
                         ids=list(PLANTED))
def test_each_rule_reports_a_planted_violation(rule, sources, reported):
    assert rule(rules.Index(sources)) == reported


def test_the_api_doc_counter_table_is_the_generated_one(source_index):
    with open(os.path.join(rules.ROOT, "docs", "api.md")) as handle:
        lines = handle.read().split("\n")
    start = lines.index("| name | labels | reported by |") + 2
    end = next(number for number in range(start, len(lines))
               if not lines[number].startswith("|"))
    assert lines[start - 1] == "|---|---|---|"
    assert lines[start:end] == rules.counter_rows(source_index)


def test_the_surface_line_counts_what_the_program_defines(source_index,
                                                          monkeypatch):
    """The ``surface:`` line ``python tests/rules.py`` ends with equals
    ``dataclasses.fields`` of each config class, the ``add_argument``
    call sites ``build_parser()`` runs and ``run_workload``'s
    keywords."""
    line = rules.surface_line(source_index)
    assert line.startswith("surface: ")
    counts = {name: int(count) for name, count in (
        item.split("=") for item in line.split()[1:])}
    fields = {cls.__name__: len(dataclasses.fields(cls))
              for cls in rules.CALLERS}
    sites = set()
    add_argument = argparse._ActionsContainer.add_argument

    def spy(self, *args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code.co_filename == cli.__file__:
            sites.add(caller.f_lineno)
        return add_argument(self, *args, **kwargs)
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
    cli.build_parser()
    assert counts == {**fields, "config_fields": sum(fields.values()),
                      "add_argument": len(sites),
                      "run_workload_keywords": len(rules.KEYWORDS),
                      "MODULE_STATE": len(rules.MODULE_STATE),
                      "ALLOWED": len(rules.ALLOWED)}


def test_every_test_the_docs_cite_exists(source_index):
    assert rules.dangling_citations(source_index) == []


#: every rule, over the whole tree
RULES = [rules.field_callers, rules.keyword_callers, rules.uncalled,
         rules.stale_allowances, rules.unlisted_state,
         rules.storage_imports_above, rules.unreported_counts,
         rules.collector_writes, rules.missing_profile_sites,
         rules.query_steps, rules.attempt_sites, rules.asked_contexts,
         rules.entry_point_defaults, rules.type_tests,
         rules.morsel_computes, rules.chain_loops, rules.oracle_imports,
         rules.oracle_engine_paths, rules.oracle_state,
         rules.dangling_citations]


def test_each_file_is_parsed_once_in_the_session(source_index,
                                                   monkeypatch):
    """Every rule reads the session's index: each parse while the rules
    run is the index's own, and no file was parsed twice."""
    parsed = []
    parse = ast.parse

    def counted(source, *args, **kwargs):
        parsed.append(args[:1])
        return parse(source, *args, **kwargs)
    monkeypatch.setattr(ast, "parse", counted)
    before = sum(source_index.parses.values())
    for rule in RULES:
        rule(source_index)
    assert len(parsed) == sum(source_index.parses.values()) - before
    program = [path for top in rules.PROGRAM
               for path in source_index.files(top)]
    assert set(program) <= set(source_index.parses)
    assert max(source_index.parses.values()) == 1
