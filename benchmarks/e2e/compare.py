"""Agreement and determinism check between two result files.

    python -m benchmarks.e2e.compare A.json B.json

``A.json`` and ``B.json`` are files ``run.py`` wrote (``--out``), of the
same kind (both ``--trace 0`` or both ``--trace 1``).  Prints one row
per (workload, metric) with both values (a host time is the fastest of
its repeats in the run) and the quartiles of their units, the bound and a
verdict, and exits nonzero when any verdict is ``outside`` or
``differs``:

``equal`` / ``differs``
    an exact metric (simulated value or count), the operations attempted
    and the failure count: the two files must agree bit for bit.
``within`` / ``outside``
    a bounded host metric: B's value is, or is not, worse than A's by
    more than the bound.
``unresolved``
    B's value is beyond the bound, but the spread between either file's
    units (q3 - q1) is wider than the bound, so the runs cannot tell.
``info``
    a host metric without a bound (the per-layer times and ratios).
"""

from __future__ import annotations

import json
import sys
from typing import List


def verdict(a: dict, b: dict) -> str:
    if a.get("clock") == "exact":
        return "equal" if a["value"] == b["value"] else "differs"
    bound = a.get("bound")
    if bound is None:
        return "info"
    base = abs(a["value"])
    if base == 0.0:
        return "within" if b["value"] == 0.0 else "outside"
    worse = (a["value"] - b["value"] if a.get("better") == "higher"
             else b["value"] - a["value"]) / base
    if worse <= bound:
        return "within"
    spreads = [(side["q3"] - side["q1"]) / abs(side["value"])
               for side in (a, b) if "q1" in side and side["value"]]
    if spreads and max(spreads) > bound:
        return "unresolved"
    return "outside"


def _cell(entry: dict) -> str:
    if "q1" in entry:
        return "{:.6g} [{:.4g}, {:.4g}]".format(
            entry["value"], entry["q1"], entry["q3"])
    return "{:.6g}".format(entry["value"])


def compare(a: dict, b: dict) -> List[tuple]:
    """Rows ``(workload, metric, a, b, bound, verdict)`` for every
    workload and metric the two result documents share."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        left, right = a["workloads"][workload], b["workloads"][workload]
        for key in ("attempted", "failed"):
            rows.append((workload, key, str(left[key]), str(right[key]), "",
                         "equal" if left[key] == right[key] else "differs"))
        for section in ("metrics", "also"):
            for metric, entry in left[section].items():
                other = right[section].get(metric)
                if other is None:
                    continue
                bound = entry.get("bound")
                rows.append((
                    workload, metric, _cell(entry), _cell(other),
                    "" if bound is None or entry.get("clock") == "exact"
                    else "{:.0%}".format(bound),
                    verdict(entry, other)))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    widths = [max(len(row[i]) for row in rows) for i in range(6)]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    bad = [row for row in rows if row[5] in ("outside", "differs")]
    print("{} rows, {} outside or differing".format(len(rows), len(bad)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
