"""Every config field and ``run_workload`` keyword has a caller, listed
mechanically: ``CALLERS``, ``RUN_WORKLOAD`` and the ``field_callers`` /
``keyword_callers`` rules of ``tests/rules.py``.  Adding a field or a
keyword without an entry there fails tier-1."""

import dataclasses

import pytest

from tests import rules
from tests.rules import CALLERS, KEYWORDS, ROWS, RUN_WORKLOAD


def test_every_field_is_listed():
    for cls, callers in CALLERS.items():
        assert sorted(callers) == sorted(
            field.name for field in dataclasses.fields(cls)), cls.__name__


def test_field_counts():
    assert {cls.__name__: len(dataclasses.fields(cls)) for cls in CALLERS} \
        == {"FaultConfig": 17, "LifecycleConfig": 3, "ServiceConfig": 13,
            "SystemConfig": 10}


@pytest.mark.parametrize(
    "cls,field,caller", ROWS,
    ids=["{}.{}".format(cls.__name__, field.name) for cls, field, _ in ROWS])
def test_field_has_its_caller(source_index, cls, field, caller):
    assert rules.field_callers(source_index, [(cls, field, caller)]) == []


def test_every_run_workload_keyword_is_listed():
    assert sorted(RUN_WORKLOAD) == sorted(KEYWORDS)


@pytest.mark.parametrize("keyword", KEYWORDS)
def test_run_workload_keyword_has_its_caller(source_index, keyword):
    assert rules.keyword_callers(source_index, [keyword]) == []
