"""Tests for the live reproduction report."""

import pytest

from repro.cli import main
from repro.harness.report import CLAIMS, generate_report


@pytest.fixture(scope="module")
def report():
    return generate_report(fast=True)


def test_report_all_claims_hold(report):
    assert "NO" not in report
    assert "{} of {} claims hold.".format(len(CLAIMS), len(CLAIMS)) in report


def test_report_contains_every_claim_row(report):
    assert report.count("|") >= (len(CLAIMS) + 2) * 5
    for needle in ("cache thrashing", "heap contention", "Q3.4"):
        assert needle in report


def test_report_cli(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "Reproduction report" in out
    assert "claims hold" in out
    # the claims table and nothing after it
    assert out.rstrip().endswith("claims hold.")


@pytest.mark.parametrize("claim, fails, passes", [
    # tests/test_paper_shapes.py: gpu[20] > gpu[4] * 1.5
    ("heap contention", 1.5, 1.51),
    # ... cpu_only / data_driven_chopping > 1.8 on Q3.4
    ("Q3.4", 1.8, 1.81),
    # ... ddc[sf] <= cpu[sf] * 1.1 at every scale factor
    ("never worse than CPU-only", 1.11, 1.1),
])
def test_report_thresholds_are_the_paper_shape_tests(claim, fails, passes):
    """The report must not say "yes" to a run tier-1 would fail: the
    three thresholds that once drifted from the tests are probed at
    the tests' own numbers."""
    (found,) = [c for c in CLAIMS if claim in c.claim]
    assert not found.holds(fails)
    assert found.holds(passes)
