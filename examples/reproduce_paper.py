"""Regenerate every figure of the paper and print the series.

Runs each entry of ``repro.harness.figures.FIGURES`` at its full size
(minutes, not hours) and prints the rows the figure plots.  Pass
``--fast`` for a quick smoke pass, ``--jobs N`` to fan each figure's
grid over N worker processes (output is identical to sequential), or
figure ids like ``fig14a chaos``.

Run with:  python examples/reproduce_paper.py [--fast] [--jobs N] [figNN ...]
"""

import argparse
import sys
import time

from repro.harness.figures import FIGURES
from repro.harness.parallel import resolve_jobs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("figures", nargs="*", help="figure ids (default: all)")
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--jobs", type=int, default=None, metavar="N")
    args = parser.parse_args(argv)
    try:
        resolve_jobs(args.jobs)
    except ValueError as error:
        parser.error("--jobs: {}".format(error))
    unknown = [figure_id for figure_id in args.figures
               if figure_id not in FIGURES]
    if unknown:
        print("unknown figure {!r}; choose from {}".format(
            unknown[0], ", ".join(FIGURES)))
        return 1

    total_start = time.time()
    for figure_id in args.figures or FIGURES:
        start = time.time()
        result = FIGURES[figure_id].run(fast=args.fast, jobs=args.jobs)
        print("=" * 72)
        result.print()
        print("[{} regenerated in {:.1f}s wall time]\n".format(
            figure_id, time.time() - start))
    print("All done in {:.1f}s.".format(time.time() - total_start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
