"""Reproduction report: every claim of the paper, measured live.

``python -m repro report`` judges every :class:`Claim` of
:data:`repro.harness.figures.CLAIMS` — the claims tier-1 asserts, by
the same function (``Claim.evaluate``) on the same grid — and renders
one markdown row per claim: the paper's sentence, each measured value
beside the threshold it was judged against, and whether it holds.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.harness import figures

#: one claim, judged: (claim, holds, "measured vs. threshold, ...")
Verdict = Tuple[figures.Claim, bool, str]


def evaluate_claims(full: bool = False,
                    tables: Optional[dict] = None) -> List[Verdict]:
    """Judge every claim, on its tier-1 grid or (``full``) on that
    grid at full size.  ``tables`` maps a grid to its measured table:
    pass one to share the sweeps with another caller."""
    tables = {} if tables is None else tables
    return [(claim, *claim.evaluate(claim.grid.table(tables, full)))
            for claim in figures.CLAIMS]


def render(verdicts: List[Verdict]) -> str:
    """The markdown table of ``verdicts`` and its one-line summary."""
    lines = [
        "# Reproduction report (regenerated)",
        "",
        "| Figure | Claim | Paper | Measured vs. threshold | Holds |",
        "|--------|-------|-------|------------------------|-------|",
    ]
    lines += [
        "| {} | {} | {} | {} | {} |".format(
            claim.figure, claim.name, claim.sentence, measured,
            "yes" if holds else "NO")
        for claim, holds, measured in verdicts]
    lines += ["", "{} of {} claims hold.".format(
        sum(holds for _, holds, _ in verdicts), len(verdicts))]
    return "\n".join(lines)
