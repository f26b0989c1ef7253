"""Every figure's table, held to the digest recorded before the
per-operator host work was cut (sizing once, array-backed HyPE windows,
the flat plan clone).

``tests/golden/figure_rows.json`` holds, per id of
``repro.harness.figures.FIGURES`` and per size (``fast`` and ``full``),
one sha256 over ``FIGURES[id].run(...).rows``: every row's columns in
order, floats written as ``float.hex``.  Tier-1 recomputes the 28
``fast`` digests; the full-size ones are checked by

    PYTHONPATH=src:. python tests/test_figure_rows.py --full

which exits non-zero on any mismatch.  Regenerate (only when a
simulated number moves on purpose):
``PYTHONPATH=src:. python tests/test_figure_rows.py --record``
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.harness.figures import FIGURES

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "figure_rows.json")
SIZES = ("fast", "full")


def canonical(value):
    """``value`` as plain JSON: floats by ``float.hex`` (every bit),
    numpy scalars as the Python value they hold, containers in order."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return ["float", value.hex()]
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    raise TypeError("no canonical form for {!r}".format(value))


def rows_digest(rows) -> str:
    encoded = json.dumps(canonical(list(rows)), separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def figure_digest(figure_id: str, size: str) -> str:
    return rows_digest(
        FIGURES[figure_id].run(fast=size == "fast", jobs=1).rows)


def load_golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_the_golden_covers_every_figure():
    golden = load_golden()
    for size in SIZES:
        assert list(golden[size]) == list(FIGURES)


@pytest.mark.parametrize("figure_id", list(FIGURES))
def test_fast_table_matches_its_recording(figure_id):
    assert figure_digest(figure_id, "fast") == load_golden()["fast"][figure_id]


def test_the_digest_sees_every_bit_of_a_float():
    row = {"strategy": "runtime", "seconds": 0.1}
    nudged = {"strategy": "runtime", "seconds": np.nextafter(0.1, 1.0)}
    assert rows_digest([row]) != rows_digest([nudged])
    assert rows_digest([row]) == rows_digest([{"strategy": "runtime",
                                                "seconds": np.float64(0.1)}])
    # column order is part of the table
    assert rows_digest([row]) != rows_digest(
        [{"seconds": 0.1, "strategy": "runtime"}])


def main(argv) -> int:
    if "--record" in argv:
        golden = {size: {figure_id: figure_digest(figure_id, size)
                         for figure_id in FIGURES} for size in SIZES}
        with open(GOLDEN, "w") as handle:
            json.dump(golden, handle, indent=1)
            handle.write("\n")
        print("wrote", GOLDEN)
        return 0
    size = "full" if "--full" in argv else "fast"
    golden = load_golden()[size]
    moved = [figure_id for figure_id in FIGURES
             if figure_digest(figure_id, size) != golden.get(figure_id)]
    print("{} {} tables, {} moved{}".format(
        len(FIGURES), size, len(moved),
        ": " + " ".join(moved) if moved else ""))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
