"""Reproduction shape tests: the qualitative claims of every paper
figure must hold on (scaled-down) harness runs.

These are the repository's headline assertions.  Each is one entry of
``repro.harness.figures.CLAIMS`` — the paper's sentence, the grid, the
measure and the threshold are declared there, and ``repro report``
prints the same verdicts — collected here as ``test_<claim name>``.
"""

from repro.harness import experiments as E
from repro.harness.figures import CLAIMS, FIGURES


def _test_of(claim):
    def test(claim_tables):
        table = claim.grid.table(claim_tables)
        holds, measured = claim.evaluate(table)
        assert holds, "{} ({}), {}: measured {}\n{}\n{}".format(
            claim.figure, FIGURES[claim.figure].section, claim.name,
            measured, claim.sentence, table.format_table())
    test.__doc__ = claim.sentence
    return test


for _claim in CLAIMS:
    globals()["test_" + _claim.name] = _test_of(_claim)


def test_worst_case_latency_goal():
    """Sec. 1: 'The main benefit of our approaches lies in optimizing
    the worst-case execution time' — the p99 latency under 20 users is
    better with Data-Driven Chopping than with a naive GPU execution."""
    database = E.ssb_database(10)
    from repro.harness.runner import run_workload
    from repro.workloads import ssb

    queries = ssb.workload(database)
    tails = {}
    for strategy in ("gpu_only", "data_driven_chopping"):
        run = run_workload(database, queries, strategy,
                           config=E.FULL_CONFIG, users=20, repetitions=2)
        tails[strategy] = run.metrics.latency_percentile(0.99)
    assert tails["data_driven_chopping"] < tails["gpu_only"]
