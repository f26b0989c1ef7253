"""Tests for the command-line interface.

``python tests/test_cli.py --record`` rewrites ``tests/golden/
cli_flags.json`` from the current parser; do that only when a flag is
added or removed on purpose.
"""

import argparse
import json
import multiprocessing
import os
import sys

import pytest

from repro.cli import FIGURE_DRIVERS, build_parser, main
from repro.storage import shm

GOLDEN_FLAGS = os.path.join(os.path.dirname(__file__), "golden",
                            "cli_flags.json")


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
    # which probe path the warm-up took is printed, never silent
    assert "compiled_probes" in out and "numpy_probes" in out


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


def test_run_command_prints_the_lifecycle_block(capsys):
    code = main([
        "run", "--scale-factor", "1", "--data-scale", "1e-3",
        "--strategy", "chopping", "--users", "4", "--max-inflight", "2",
        "--deadline", "0.5",
    ])
    assert code == 0
    assert ("  query lifecycle (admission, deadlines):"
            in capsys.readouterr().out.splitlines())


@pytest.mark.skipif(
    not (shm.available()
         and "fork" in multiprocessing.get_all_start_methods()),
    reason="needs fork and shared memory",
)
def test_pool_command_survives_worker_crashes(capsys):
    """``repro pool`` under seeded worker crashes: the pool respawns,
    its rows equal the sequential engine's, and no segment leaks."""
    code = main(["pool", "--data-scale", "1e-3", "--jobs", "2",
                 "--faults", "crash=0.3,seed=3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  byte-identical to sequential: True" in lines
    assert "  leaked segments: 0" in lines


def test_figures_selected(capsys):
    code = main(["figures", "fig16", "--fast"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 16" in out
    assert "done in" in out


def test_figures_unknown_id(capsys):
    assert main(["figures", "fig99"]) == 1
    assert "unknown figure" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["figures", "fig16", "--fast"],
                                  ["pool"]])
def test_a_bad_repro_jobs_is_an_error_not_a_traceback(argv, monkeypatch,
                                                      capsys):
    monkeypatch.setenv("REPRO_JOBS", "abc")
    assert main(argv) == 1
    assert "REPRO_JOBS='abc' is not an integer" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message,generates", [
    pytest.param(["run", "--gpus", "0"],
                 "at least one co-processor is required", False,
                 id="run-gpus"),
    pytest.param(["run", "--gpu-cache-gib", "5"],
                 "cache cannot exceed device memory", False,
                 id="run-gpu-cache-gib"),
    pytest.param(["run", "--users", "0"],
                 "users and repetitions must be >= 1", True, id="run-users"),
    pytest.param(["run", "--faults", "pcie=abc"],
                 "fault spec pcie='abc' is not a number", False,
                 id="run-faults"),
    pytest.param(["serve", "--rate", "0"], "rate must be positive", False,
                 id="serve-rate"),
    pytest.param(["serve", "--tenants", "0"],
                 "tenants_per_class must be >= 1", False, id="serve-tenants"),
    pytest.param(["serve", "--deadline", "0"],
                 "deadline_seconds must be positive", False,
                 id="serve-deadline-zero"),
    pytest.param(["serve", "--deadline", "-1"],
                 "deadline_seconds must be positive", False,
                 id="serve-deadline-negative"),
    pytest.param(["serve", "--target", "-1"],
                 "latency_target_seconds must be positive", False,
                 id="serve-target-negative"),
    pytest.param(["serve", "--max-inflight", "0"],
                 "max_inflight must be >= 1", False,
                 id="serve-max-inflight"),
    pytest.param(["serve", "--append-fraction", "2",
                  "--mutation-interval", "1"],
                 "append_fraction must be in (0, 1]", False,
                 id="serve-append-fraction"),
    pytest.param(["query", "select x from nowhere"],
                 "unknown table 'nowhere'", True, id="query-bind"),
    pytest.param(["query", "select count(*) from lineorder "
                           "where lo_discount = 'x'"],
                 "string literal 'x' against int32 column "
                 "lineorder.lo_discount", True, id="query-string-literal"),
    pytest.param(["query", "select count(*) from lineorder "
                           "where lo_discount between 'a' and 'b'"],
                 "string literal 'a' against int32 column "
                 "lineorder.lo_discount", True, id="query-string-between"),
    pytest.param(["query", "select count(*) from lineorder "
                           "where lo_discount in (1, 'b')"],
                 "string literal 'b' against int32 column "
                 "lineorder.lo_discount", True, id="query-string-in"),
    pytest.param(["query", "select count(*) from customer "
                           "where c_region = 1"],
                 "numeric literal 1 against string column "
                 "customer.c_region", True, id="query-numeric-literal"),
])
def test_a_bad_flag_value_is_an_error_not_a_traceback(
        argv, message, generates, monkeypatch, capsys):
    """One ``error:`` line and exit status 1; a bad config flag is
    refused before the database is generated."""
    from repro import cli

    generated = []
    generate = cli._database

    def database(*args):
        generated.append(args)
        return generate(*args)

    monkeypatch.setattr(cli, "_database", database)
    assert main(argv) == 1
    assert capsys.readouterr().out == "error: {}\n".format(message)
    assert bool(generated) == generates


def test_a_query_prints_plain_values(capsys):
    """``repro query`` prints a row as Python values — no numpy scalar
    reprs (``np.int64(...)``, ``np.str_(...)``) under numpy 2."""
    assert main(["query", "select c_region, count(*) from customer "
                          "where c_region = 'AMERICA' group by c_region"]) == 0
    row, summary = capsys.readouterr().out.splitlines()
    assert "np." not in row and row.startswith("('AMERICA', ")
    assert summary.startswith("[1 rows;")


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


def declared_flags(parser):
    """Per subcommand: option string (or positional dest) -> dest,
    default, type and choices, as ``build_parser()`` declares them."""
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    table = {}
    for name, sub in commands.choices.items():
        table[name] = {
            " ".join(action.option_strings) or action.dest: {
                "dest": action.dest,
                "default": action.default,
                "type": getattr(action.type, "__name__", action.type),
                "choices": (list(action.choices)
                            if action.choices is not None else None),
            }
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }
    return table


def test_every_flag_is_declared_and_parses_as_recorded():
    """Each subcommand keeps every option string, with its dest,
    default, type and choices, of ``tests/golden/cli_flags.json``, and
    parses each option to that default."""
    with open(GOLDEN_FLAGS) as handle:
        golden = json.load(handle)
    parser = build_parser()
    assert json.loads(json.dumps(declared_flags(parser))) == golden
    for command, flags in golden.items():
        positionals = [key for key in flags if not key.startswith("-")]
        argv = [command] + ["x" for key in positionals
                            if key not in ("figures",)]
        args = vars(parser.parse_args(argv))
        for key, flag in flags.items():
            if key.startswith("-"):
                assert args[flag["dest"]] == flag["default"], (command, key)


if __name__ == "__main__":
    if "--record" in sys.argv[1:]:
        with open(GOLDEN_FLAGS, "w") as handle:
            json.dump(declared_flags(build_parser()), handle, indent=1)
            handle.write("\n")
        print("wrote", GOLDEN_FLAGS)
