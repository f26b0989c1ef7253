"""Every generated database, held column for column to the digest
recorded before its string columns were built from a domain and a code
index.

``tests/golden/generated_columns.json`` holds, per generator point, one
sha256 per column over its dtype, row count, dictionary, nominal rows
and value bytes.  The SSB points are the benchmark's (SF 1 at data
scales 0.5, 0.25 and 0.01) and the figures' (SF 1, 10 and 30 at the
default 1e-4); the TPC-H points are its defaults at SF 1 and SF 10.

    PYTHONPATH=src python tests/test_generated_columns.py

checks every point and prints the distinct values of each string
column; it exits non-zero on any moved column.  Regenerate (only when
a generator changes its data on purpose) with ``--record``.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.storage import Column
from repro.workloads import ssb, tpch

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "generated_columns.json")

#: name -> (generator, scale_factor, data_scale, seed)
POINTS = {
    "ssb 1 0.5 42": (ssb.generate, 1, 0.5, 42),
    "ssb 1 0.25 7": (ssb.generate, 1, 0.25, 7),
    "ssb 1 0.01 42": (ssb.generate, 1, 0.01, 42),
    "ssb 1 0.01 7": (ssb.generate, 1, 0.01, 7),
    "ssb 1 1e-4 42": (ssb.generate, 1, 1e-4, 42),
    "ssb 10 1e-4 42": (ssb.generate, 10, 1e-4, 42),
    "ssb 30 1e-4 42": (ssb.generate, 30, 1e-4, 42),
    "tpch 1 1e-4 7": (tpch.generate, 1, 1e-4, 7),
    "tpch 10 1e-4 7": (tpch.generate, 10, 1e-4, 7),
}


def column_digest(column) -> str:
    values = np.ascontiguousarray(column.values)
    digest = hashlib.sha256(json.dumps([
        values.dtype.str, len(values), column.dictionary,
        column.nominal_rows]).encode())
    digest.update(values)
    return digest.hexdigest()


def generate(point: str):
    make, scale_factor, data_scale, seed = POINTS[point]
    return make(scale_factor, data_scale, seed)


def digests(database):
    return {column.key: column_digest(column)
            for table in database.tables for column in table.columns}


def load_golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_the_golden_covers_every_point():
    assert list(load_golden()) == list(POINTS)


@pytest.mark.parametrize("point", list(POINTS))
def test_every_column_matches_its_recording(point):
    # list(...) so the order of tables and columns is checked too
    assert list(digests(generate(point)).items()) == list(
        load_golden()[point].items())


def test_the_digest_sees_a_swapped_code_and_the_dictionary():
    column = Column.from_strings("t", "c", ["MFGR#1101", "MFGR#1110"])
    swapped = Column.from_strings("t", "c", ["MFGR#1110", "MFGR#1101"])
    assert column_digest(column) != column_digest(swapped)
    renamed = Column.from_strings("t", "c", ["MFGR#1101", "MFGR#1111"])
    assert column.values.tobytes() == renamed.values.tobytes()
    assert column_digest(column) != column_digest(renamed)


def main(argv) -> int:
    if "--record" in argv:
        golden = {point: digests(generate(point)) for point in POINTS}
        with open(GOLDEN, "w") as handle:
            json.dump(golden, handle, indent=1)
            handle.write("\n")
        print("wrote", GOLDEN)
        return 0
    golden = load_golden()
    moved = []
    print("{:<16} {:<20} {:>9} {:>9}".format(
        "point", "string column", "rows", "distinct"))
    for point in POINTS:
        database = generate(point)
        for table in database.tables:
            for column in table.columns:
                if column.dictionary is not None:
                    print("{:<16} {:<20} {:>9,} {:>9,}".format(
                        point, column.key, column.actual_rows,
                        len(column.dictionary)))
        now, recorded = digests(database), golden.get(point, {})
        moved += ["{} {}".format(point, key)
                  for key in dict.fromkeys(list(now) + list(recorded))
                  if now.get(key) != recorded.get(key)]
    print("{} points, {} columns moved{}".format(
        len(POINTS), len(moved), ": " + ", ".join(moved) if moved else ""))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
