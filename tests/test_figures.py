"""Registry tests for ``repro.harness.figures``: the two tables are
complete and every entry's metadata is valid, so a misspelt argument
fails here and not when someone first runs ``fig24 --fast``."""

import fnmatch
import inspect
import re
from pathlib import Path

import pytest

from repro.harness.figures import CLAIMS, COMPARISONS, FIGURES

PAPER_FIGURES = {
    "fig01", "fig02", "fig03", "fig05", "fig06", "fig07", "fig09",
    "fig12", "fig13", "fig14a", "fig14b", "fig15a", "fig15b",
    "fig16", "fig17", "fig18a", "fig18b", "fig19", "fig20", "fig21",
    "fig22", "fig23", "fig24", "fig25",
}
EXTENSIONS = {"multigpu", "chaos", "overlap", "overload"}


def grids():
    """Every (label, grid) a figure or a claim declares."""
    return ([(figure.id, figure.grid) for figure in FIGURES.values()]
            + [(claim.name, claim.grid) for claim in CLAIMS])


def test_the_table_has_every_paper_figure_and_extension_once():
    assert len(FIGURES) == 28
    assert set(FIGURES) == PAPER_FIGURES | EXTENSIONS
    for figure_id, figure in FIGURES.items():
        assert figure.id == figure_id
        assert re.match(r"(Sec\.|App\.) \S+$", figure.section), figure_id
        assert figure.title.startswith(
            ("Figure ", "Extension: ", "Chaos: ")), figure_id
    # every paper figure carries a claim; the extension sweeps keep
    # their assertions beside their mechanisms
    assert {claim.figure for claim in CLAIMS} == PAPER_FIGURES
    assert all(FIGURES[figure_id].claims for figure_id in PAPER_FIGURES)


def test_claims_are_named_once_and_say_what_the_paper_says():
    names = [claim.name for claim in CLAIMS]
    assert len(names) == len(set(names)) == 32
    for claim in CLAIMS:
        number = re.match(r"fig(\d\d)_", claim.name).group(1)
        assert claim.figure.startswith("fig" + number), claim.name
        assert re.match(r"(Fig\.|Sec\.|App\.) .{30,}\.$",
                        claim.sentence), claim.name
        assert claim.checks, claim.name
        for columns, measure, compare, threshold in claim.checks:
            assert compare in COMPARISONS, claim.name
            assert len(inspect.signature(measure).parameters) == len(
                columns.split()), claim.name
    assert sum(len(claim.checks) for claim in CLAIMS) >= 58


@pytest.mark.parametrize("label, grid", grids(),
                         ids=[label for label, _ in grids()])
def test_grid_arguments_are_parameters_of_the_sweep(label, grid):
    parameters = inspect.signature(grid.sweep).parameters
    assert set(grid.full) | set(grid.small) <= set(parameters) - {"jobs"}
    # ``repro report --full`` judges a claim on its grid at full size:
    # that grid must contain every point the tier-1 grid has (users
    # 4/7/20, buffers 0/1/2/2.5 GiB, fractions 0/0.6/0.8, ...)
    for name, shrunk in grid.small.items():
        at_full_size = grid.full.get(name, parameters[name].default)
        if isinstance(shrunk, tuple):
            assert set(shrunk) <= set(at_full_size), (label, name)


def test_titles_format_with_the_sweep_arguments():
    for figure in FIGURES.values():
        call = inspect.signature(figure.grid.sweep).bind(**figure.grid.full)
        call.apply_defaults()
        assert "{" not in figure.title.format(**call.arguments)


def test_experiments_md_index_names_only_what_the_table_has():
    """EXPERIMENTS.md's per-figure index: every sweep, every figure id
    and every shape-test glob it names exists in the table."""
    text = (Path(__file__).resolve().parent.parent
            / "EXPERIMENTS.md").read_text()
    index = next(block for block in text.split("## Per-figure index")[1]
                 .split("\n\n") if block.startswith("| Fig."))
    rows = index.splitlines()[2:]
    assert len(rows) == 21 + len(EXTENSIONS)
    indexed = set()
    for row in rows:
        _, _, sweep, command, tests, _ = (
            cell.strip() for cell in row.split("|"))
        ids = re.findall(r"\b(fig\d\d[ab]?|[a-z]+)\b",
                         command.split("figures")[1])
        assert ids and set(ids) <= set(FIGURES), row
        indexed |= set(ids)
        for figure_id in ids:
            assert FIGURES[figure_id].grid.sweep.__name__ == sweep.strip("`")
        for glob in re.findall(r"test_fig\w*\*", tests):
            assert fnmatch.filter(
                ["test_" + claim.name for figure_id in ids
                 for claim in FIGURES[figure_id].claims], glob), row
    assert indexed == set(FIGURES)
