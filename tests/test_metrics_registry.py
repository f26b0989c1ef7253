"""What is counted is what is reported, and nobody else writes: the
``unreported_counts``, ``collector_writes`` and
``missing_profile_sites`` rules of ``tests/rules.py``."""

import os

from tests import rules


def test_every_counted_name_is_reported_and_every_report_is_fed(
        source_index):
    assert len(source_index.counted) >= 40
    assert rules.unreported_counts(source_index) == []


def test_the_api_doc_lists_every_count(source_index):
    with open(os.path.join(rules.ROOT, "docs", "api.md")) as handle:
        text = handle.read()
    for row in rules.counter_rows(source_index):
        assert row in text, row


def test_nothing_outside_the_package_writes_to_a_collector(source_index):
    assert rules.collector_writes(source_index) == []


def test_profile_counted_functions_exist_where_the_benchmark_looks(
        source_index):
    assert len(rules.profile_sites(source_index)) >= 10
    assert rules.missing_profile_sites(source_index) == []
