"""Every public name of ``src/repro`` has a program caller: the
``uncalled`` and ``stale_allowances`` rules of ``tests/rules.py``.  A
name that only its own unit tests reach is either deleted or listed in
``ALLOWED`` with the reason it stays."""

from tests import rules


def test_every_public_name_has_a_program_caller(source_index):
    assert rules.uncalled(source_index) == []


def test_no_stale_allowance(source_index):
    assert rules.stale_allowances(source_index) == []


def test_every_allowance_gives_a_reason():
    assert len(rules.ALLOWED) <= 15
    assert all(reason.strip() for reason in rules.ALLOWED.values())
