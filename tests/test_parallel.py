"""The declarative cell grid runner (repro.harness.parallel)."""

import pytest

from repro.harness.parallel import (
    Cell,
    CellOutcome,
    clear_workload_cache,
    execute_cell,
    resolve_jobs,
    run_cells,
)

#: Cheap but non-trivial cells: tiny scale factor, one query each.
SMOKE_CELLS = [
    Cell(workload="ssb", scale_factor=1.0, strategy="cpu_only",
         repetitions=1, query_names=("Q1.1",)),
    Cell(workload="ssb", scale_factor=1.0, strategy="gpu_only",
         repetitions=1, query_names=("Q1.1",)),
    Cell(workload="ssb", scale_factor=1.0, strategy="data_driven_chopping",
         repetitions=1, query_names=("Q2.1",)),
    Cell(workload="ssb", scale_factor=1.0, measure="footprint"),
]


class TestResolveJobs:
    """explicit > ``$REPRO_JOBS`` > 1, and nothing else: no process-wide
    default a command could leave behind."""

    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_rejects_non_positive(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_figures_jobs_flag_does_not_outlive_the_command(
            self, monkeypatch, capsys):
        """``repro figures --jobs N`` hands N to the figures it runs;
        a later grid in the same process is sequential again."""
        from repro.cli import main

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["figures", "fig16", "--fast", "--jobs", "2"]) == 0
        assert "Figure 16" in capsys.readouterr().out
        assert resolve_jobs() == 1


class TestCellValidation:
    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            Cell(workload="nope")

    def test_unknown_measure(self):
        with pytest.raises(ValueError):
            Cell(measure="wall")

    def test_cells_are_hashable_specs(self):
        assert Cell(workload="ssb") == Cell(workload="ssb")
        assert len({Cell(workload="ssb"), Cell(workload="ssb")}) == 1


class TestExecuteCell:
    def test_footprint_cell_skips_execution(self):
        outcome = execute_cell(Cell(workload="ssb", scale_factor=1.0,
                                    measure="footprint"))
        assert outcome.footprint_bytes > 0
        assert outcome.metrics.workload_seconds == 0.0
        assert outcome.metrics.latencies_by_query() == {}

    def test_run_cell_produces_measurements(self):
        outcome = execute_cell(SMOKE_CELLS[0])
        assert outcome.metrics.workload_seconds > 0
        assert outcome.metrics.mean_latency("Q1.1") > 0
        assert outcome.metrics.mean_latency("no_such_query") == 0.0
        assert set(outcome.metrics.phase_seconds) >= {"numpy", "plan", "des"}


class TestRunCells:
    def test_outcomes_in_cell_order(self):
        outcomes = run_cells(SMOKE_CELLS, jobs=1)
        assert len(outcomes) == len(SMOKE_CELLS)
        assert all(isinstance(o, CellOutcome) for o in outcomes)
        # the footprint cell is last, exactly where its spec sits
        assert outcomes[-1].metrics.workload_seconds == 0.0
        assert outcomes[-1].footprint_bytes > 0

    def test_parallel_equals_sequential(self):
        import dataclasses

        def simulated(outcome):
            # phase_seconds is *wall-clock* and legitimately varies
            # between runs; every simulated measurement must not.
            return dataclasses.replace(
                outcome, metrics=dataclasses.replace(
                    outcome.metrics, phase_seconds={}))

        sequential = [simulated(o) for o in run_cells(SMOKE_CELLS, jobs=1)]
        parallel = [simulated(o) for o in run_cells(SMOKE_CELLS, jobs=2)]
        assert parallel == sequential

    def test_empty_grid(self):
        assert run_cells([], jobs=4) == []


def test_driver_tables_identical_across_worker_counts():
    """A figure's printed table must not depend on --jobs."""
    from repro.harness.figures import FIGURES

    small = dict(fractions=(0.0, 1.0), repetitions=1)
    sequential = FIGURES["fig24"].run(**small)
    parallel = FIGURES["fig24"].run(jobs=2, **small)
    assert parallel.format_table() == sequential.format_table()


def test_clear_workload_cache_is_idempotent():
    clear_workload_cache()
    clear_workload_cache()
