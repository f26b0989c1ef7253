"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURE_DRIVERS, build_parser, main


def test_strategies_command(capsys):
    assert main(["strategies"]) == 0
    out = capsys.readouterr().out
    assert "data_driven_chopping" in out
    assert "critical_path" in out


def test_query_command(capsys):
    code = main([
        "query",
        "select count(*) as n from lineorder where lo_discount > 8",
        "--scale-factor", "1", "--strategy", "cpu_only",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "1 rows" in out
    assert "simulated" in out


def test_run_command(capsys):
    code = main([
        "run", "--scale-factor", "1", "--users", "2",
        "--repetitions", "1", "--strategy", "chopping",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "workload_seconds" in out
    assert "Q4.3" in out


def test_run_command_multi_gpu(capsys):
    code = main([
        "run", "--scale-factor", "1", "--repetitions", "1",
        "--gpus", "2", "--strategy", "data_driven_chopping",
    ])
    assert code == 0
    assert "workload_seconds" in capsys.readouterr().out


def test_run_command_attributes_faults_to_queries(capsys):
    """``run --faults`` ends its fault block with one row per query
    (executions / aborts / wasted s / retries); the rows add up to the
    block's own totals."""
    code = main([
        "run", "--scale-factor", "1", "--users", "2",
        "--repetitions", "1", "--strategy", "runtime", "--faults", "0.2",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.strip().startswith("per query:"))
    rows = {}
    for line in lines[start + 1:]:
        name, _, cells = line.strip().partition(" ")
        if cells.count("/") != 3:
            break
        rows[name] = [float(cell) for cell in cells.split("/")]
    assert len(rows) == 13 and "Q4.3" in rows
    totals = {line.split()[0]: float(line.split()[1])
              for line in lines[:start] if len(line.split()) == 2}
    assert sum(row[1] for row in rows.values()) == totals["fault_aborts"] > 0
    assert sum(row[3] for row in rows.values()) == totals["retries"]


def test_figures_selected(capsys):
    code = main(["figures", "fig16", "--fast"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 16" in out
    assert "done in" in out


def test_figures_unknown_id(capsys):
    assert main(["figures", "fig99"]) == 1
    assert "unknown figure" in capsys.readouterr().out


def test_figure_driver_table_covers_all_paper_figures():
    """``FIGURE_DRIVERS`` is the view of ``repro.harness.figures.FIGURES``
    that ``benchmarks/e2e`` reads: ``(callable, full kwargs, --fast
    kwargs)`` with ``callable(jobs=1, **kwargs) -> ExperimentResult``."""
    from repro.harness.figures import FIGURES

    assert list(FIGURE_DRIVERS) == list(FIGURES) and len(FIGURES) == 28
    for figure_id, (driver, full, fast) in FIGURE_DRIVERS.items():
        assert driver == FIGURES[figure_id].run
        assert (full, fast) == ({}, {"fast": True})
    driver, _, fast = FIGURE_DRIVERS["fig16"]
    assert driver(jobs=1, **fast).title.startswith("Figure 16")


def test_compress_command(capsys):
    code = main(["compress", "--scale-factor", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lineorder.lo_discount" in out
    assert "total:" in out


def test_serve_command(capsys):
    code = main([
        "serve", "--scale-factor", "0.01", "--data-scale", "0.01",
        "--duration", "2", "--rate", "100", "--arrivals", "diurnal",
        "--deadline", "0.05", "--target", "0.02",
        "--mutation-interval", "1",
        "--faults", "pcie=0.02,kernel=0.02,seed=5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "per-class SLO ledger" in out
    assert "premium" in out and "best_effort" in out
    assert "byte-identical to reference: True" in out
    assert "conservation (arrivals == completed+shed+cancelled): True" in out
    assert "epochs advanced:" in out


def test_parser_rejects_bad_strategy():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--strategy", "warp-drive"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
