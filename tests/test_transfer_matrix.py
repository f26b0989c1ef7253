"""Golden identity matrix for the transfer model and the attempt loop.

{serialized, async} x {no faults, pcie/kernel/heap faults} on a small
2-GPU SSB run, plus the same with ``split=True`` and with
``SystemConfig.coupled_gpu()`` (split on).
The simulated numbers of the pure cells in
``tests/golden/transfer_matrix.json`` were recorded at the commit
*before* ``PCIeBus`` was folded into ``CopyEngine`` and the retry loops
into ``ResilienceManager``; the split cells (id suffix ``/split``) at
the commit before the operator attempt and the split share became one
device attempt.  Every cell must reproduce them
exactly (floats compared by ``repr``).

Regenerate (only when the hardware model changes on purpose):
``PYTHONPATH=src:. python tests/test_transfer_matrix.py``
"""

import json
import os

import pytest

from repro.hardware import SystemConfig
from repro.hardware.calibration import MIB
from repro.harness import run_workload
from repro.workloads import ssb

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "transfer_matrix.json")
FAULTS = "pcie=0.05,kernel=0.03,heap=0.03,seed=7"
LINKS = {
    "serialized": {},
    "async": {"copy_engine": True},
    #: the coupled platform of arXiv 1307.1955, its own heap and cache
    "coupled": None,
}
#: device memory and column cache, sized so that out-of-memory aborts,
#: evictions and cross-device child relays all occur without faults
MEMORY, CACHE = 64 * MIB, 24 * MIB
CELLS = [
    (link, faulted, split)
    for split in (False, True)
    for link in LINKS
    for faulted in (False, True)
    if split or LINKS[link] is not None
]


def cell_id(cell) -> str:
    """``operator/<link>/<faults>[/split]``: operator-at-a-time cells,
    keyed as recorded."""
    link, faulted, split = cell
    return "operator/{}/{}{}".format(link, "faults" if faulted else "clean",
                                     "/split" if split else "")


def config_of(link, split) -> SystemConfig:
    if LINKS[link] is None:
        return SystemConfig.coupled_gpu(gpu_count=2, split=split)
    return SystemConfig(gpu_count=2, gpu_memory_bytes=MEMORY,
                        gpu_cache_bytes=CACHE, split=split, **LINKS[link])


def measure(database, cell) -> dict:
    """The pinned simulated statistics of one matrix cell."""
    link, faulted, split = cell
    run = run_workload(
        database, ssb.workload(database), "runtime",
        config=config_of(link, split), users=6, repetitions=2,
        faults=FAULTS if faulted else None,
    )
    metrics = run.metrics
    pinned = {
        "makespan": repr(metrics.workload_seconds),
        "wasted_seconds": repr(metrics.wasted_seconds),
        "aborts": metrics.aborts,
        "retries": metrics.retries,
        "h2d_bytes": metrics.cpu_to_gpu_bytes,
        "fault_digest": run.fault_digest,
    }
    if split:
        summary = metrics.split_summary()
        pinned["split_operators"] = int(summary["split_operators"])
        pinned["degraded"] = int(summary["split_degrades"])
    return pinned


def matrix_database():
    return ssb.generate(scale_factor=1, data_scale=2e-3, seed=99)


@pytest.fixture(scope="module")
def database():
    return matrix_database()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_cell_matches_parent_commit(database, golden, cell):
    assert measure(database, cell) == golden[cell_id(cell)]


def test_matrix_exercises_faults_and_aborts(golden):
    """The pins are only worth something if the cells do real work."""
    for cell in CELLS:
        pinned = golden[cell_id(cell)]
        link, faulted, split = cell
        assert pinned["h2d_bytes"] > 0
        if LINKS[link] is not None:
            assert pinned["aborts"] > 0  # clean cells: genuine OOM
        if faulted:
            assert pinned["fault_digest"] is not None
            assert pinned["retries"] > 0


@pytest.mark.parametrize("cell", [cell for cell in CELLS if cell[2]],
                         ids=cell_id)
def test_split_cells_split(golden, cell):
    """Each split cell splits operators, and degrades some under
    faults."""
    pinned = golden[cell_id(cell)]
    assert pinned["split_operators"] > 0
    if cell[1]:
        assert pinned["degraded"] > 0


if __name__ == "__main__":
    db = matrix_database()
    table = {cell_id(cell): measure(db, cell) for cell in CELLS}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, row in table.items():
        print(name, row)
