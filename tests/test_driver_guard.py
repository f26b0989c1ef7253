"""One query driver, and a context for every query: the
``query_steps``, ``attempt_sites``, ``asked_contexts`` and
``entry_point_defaults`` rules of ``tests/rules.py``, and the patterns
they see."""

import pytest

from tests import rules


def test_each_step_of_a_query_has_one_site_in_the_harness(source_index):
    assert rules.query_steps(source_index) == []


def test_a_device_attempt_has_one_body_in_the_engine(source_index):
    assert rules.attempt_sites(source_index) == []


def test_the_attempt_guard_sees_a_second_site():
    planted = rules.Index({
        "src/repro/engine/execution/operator_task.py":
            "def device_attempt(ctx):\n"
            "    lease = DeviceLease(ctx)\n"
            "    account_abort(ctx)\n"
            "class Second:\n"
            "    def _attempt(self, ctx):\n"
            "        lease = lease_module.DeviceLease(ctx)\n"
            "        self.account_abort(ctx)\n"})
    sites = rules.call_sites(planted, rules.ONE_ATTEMPT, "engine")
    assert {name: [scope for _, scope, _ in where]
            for name, where in sites.items()} == {
        "DeviceLease": ["device_attempt", "Second._attempt"],
        "account_abort": ["device_attempt", "Second._attempt"]}


def test_no_engine_code_asks_whether_a_query_has_a_context(source_index):
    assert rules.asked_contexts(source_index) == []


@pytest.mark.parametrize("entry", sorted(rules.ENTRY_POINTS))
def test_the_entry_points_default_a_missing_context(source_index, entry):
    """The exemption list is exact: each entry point still takes an
    optional context (and nothing else in its module is exempt)."""
    assert rules.entry_point_defaults(source_index, [entry]) == []


def test_the_guard_sees_the_patterns_it_forbids():
    planted = rules.Index({"src/repro/core/m.py": (
        "class A:\n"
        "    def f(self, qctx=None):\n"
        "        if qctx is not None:\n"
        "            pass\n"
        "        return 1 if self.qctx else 0\n"
        "def g(*, qctx=None):\n"
        "    if qctx:\n"
        "        return qctx is None\n")})
    scoped = planted["src/repro/core/m.py"].scoped
    assert sorted((scope, what) for scope, _, what
                  in rules.context_tests(scoped)) == [
        ("A.f", "if qctx"), ("A.f", "qctx is (not) None"),
        ("A.f", "qctx=None default"), ("g", "if qctx"),
        ("g", "qctx is (not) None"), ("g", "qctx=None default")]
