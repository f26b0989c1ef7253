"""Tests for the live reproduction report: it prints the claims tier-1
asserts, judged by the same function, and its exit status follows them."""

import copy
import functools

import pytest

from repro.cli import main
from repro.harness import figures, report as R
from tests import test_paper_shapes


@pytest.fixture(scope="module")
def report(claim_tables):
    return R.generate_report(tables=claim_tables)


def claim_named(name):
    (found,) = [claim for claim in figures.CLAIMS if claim.name == name]
    return found


def test_report_all_claims_hold(report):
    assert "NO" not in report
    count = len(figures.CLAIMS)
    assert report.endswith("{} of {} claims hold.".format(count, count))


def test_report_contains_every_claim_row(report):
    """Report == tier-1: the claims the report prints are exactly the
    ``test_fig*`` functions of tests/test_paper_shapes.py."""
    printed = [line.split("|")[2].strip() for line in report.splitlines()
               if line.startswith("| fig")]
    asserted = [name[len("test_"):] for name in vars(test_paper_shapes)
                if name.startswith("test_fig")]
    assert len(printed) == len(set(printed)) >= 32
    assert set(printed) == set(asserted)
    # Fig. 20 is judged on the tier-1 grid (two repetitions), where
    # Chopping still wastes time: a factor, not "all of it"
    (fig20,) = [line for line in report.splitlines() if "| fig20_" in line]
    assert "22.1 > 5" in fig20


def test_report_cli(capsys, claim_tables, monkeypatch):
    monkeypatch.setattr(R, "evaluate_claims", functools.partial(
        R.evaluate_claims, tables=claim_tables))
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "Reproduction report" in out
    # the claims table and nothing after it
    assert out.rstrip().endswith("claims hold.")


#: claim substring -> (claim, column, numerator cell, denominator cell)
PROBED = {
    "heap contention": (
        "fig03_contention_degrades_beyond_seven_users", "seconds",
        dict(strategy="gpu_only", users=20),
        dict(strategy="gpu_only", users=4)),
    "Q3.4": (
        "fig17_high_selectivity_queries_accelerate", "seconds",
        dict(strategy="cpu_only", query="Q3.4"),
        dict(strategy="data_driven_chopping", query="Q3.4")),
    "never worse than CPU-only": (
        "fig14_data_driven_chopping_is_robust", "seconds",
        dict(strategy="data_driven_chopping", scale_factor=10),
        dict(strategy="cpu_only", scale_factor=10)),
}


@pytest.mark.parametrize("claim, fails, passes", [
    ("heap contention", 1.5, 1.51),            # gpu[20] / gpu[4] > 1.5
    ("Q3.4", 1.8, 1.81),                       # cpu / ddc > 1.8 on Q3.4
    ("never worse than CPU-only", 1.11, 1.1),  # ddc / cpu <= 1.1 at every SF
])
def test_report_thresholds_are_the_paper_shape_tests(
        claim, fails, passes, claim_tables, monkeypatch, capsys):
    """The three thresholds that once drifted between report and tests,
    probed at the tests' own numbers on a doctored table: the verdict
    flips, the report says NO and the exit status goes to 1."""
    name, column, numerator, denominator = PROBED[claim]
    claim = claim_named(name)

    def doctored(ratio):
        """The measured table, its column rescaled so the denominator
        cell is exactly 1.0 and the numerator cell exactly ``ratio``."""
        table = copy.deepcopy(claim.grid.table(claim_tables))
        (unit,) = [row[column] for row in table.rows
                   if denominator.items() <= row.items()]
        for row in table.rows:
            row[column] = (ratio if numerator.items() <= row.items()
                           else row[column] / unit)
        return table

    assert claim.evaluate(doctored(passes))[0]
    assert not claim.evaluate(doctored(fails))[0]
    monkeypatch.setattr(R, "evaluate_claims", functools.partial(
        R.evaluate_claims, tables={**claim_tables,
                                   claim.grid: doctored(fails)}))
    assert main(["report"]) == 1
    (row,) = [line for line in capsys.readouterr().out.splitlines()
              if "| {} |".format(name) in line]
    assert row.endswith("| NO |") and " {:g}".format(fails) in row


def test_report_exit_status_follows_a_doctored_threshold(
        claim_tables, monkeypatch, capsys):
    """The thresholds are data: raise one and `repro report` fails."""
    fig20 = claim_named(
        "fig20_wasted_time_grows_with_users_and_chopping_removes_it")
    stricter = figures.Claim(
        fig20.figure, fig20.name, fig20.grid, fig20.sentence,
        *((columns, measure, compare, 10 * threshold)
          for columns, measure, compare, threshold in fig20.checks))
    monkeypatch.setattr(figures, "CLAIMS", (stricter,))
    monkeypatch.setattr(R, "evaluate_claims", functools.partial(
        R.evaluate_claims, tables=claim_tables))
    assert main(["report"]) == 1
    out = capsys.readouterr().out
    assert "22.1 > 50 | NO |" in out and "0 of 1 claims hold." in out
