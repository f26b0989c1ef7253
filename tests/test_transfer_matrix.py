"""Golden identity matrix for the transfer model and the attempt loop.

{operator, vectorized} x {serialized, async} x {no faults,
pcie/kernel/heap faults} on a small 2-GPU SSB run.
The simulated numbers in ``tests/golden/transfer_matrix.json`` were
recorded at the commit *before* ``PCIeBus`` was folded into
``CopyEngine`` and the retry loops into ``ResilienceManager``; every
cell must reproduce them exactly (floats compared by ``repr``).

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
}
#: (device memory, column cache) per processing model, sized so that
#: out-of-memory aborts, evictions and cross-device child relays all
#: occur without faults: operators stage whole columns on the heap,
#: pipelines only their breaker output
PLATFORM = {
    "operator": (64 * MIB, 24 * MIB),
    "vectorized": (228 * MIB, 224 * MIB),
}
CELLS = [
    (model, link, faulted)
    for model in ("operator", "vectorized")
    for link in LINKS
    for faulted in (False, True)
]


def cell_id(cell) -> str:
    model, link, faulted = cell
    return "{}/{}/{}".format(model, link, "faults" if faulted else "clean")


def measure(database, cell) -> dict:
    """The pinned simulated statistics of one matrix cell."""
    model, link, faulted = cell
    memory, cache = PLATFORM[model]
    config = SystemConfig(gpu_count=2, gpu_memory_bytes=memory,
                          gpu_cache_bytes=cache, **LINKS[link])
    run = run_workload(
        database, ssb.workload(database), "runtime", config=config,
        users=6, repetitions=2, processing_model=model,
        faults=FAULTS if faulted else None,
    )
    metrics = run.metrics
    return {
        "makespan": repr(metrics.workload_seconds),
        "wasted_seconds": repr(metrics.wasted_seconds),
        "aborts": metrics.aborts,
        "retries": metrics.retries,
        "h2d_bytes": metrics.cpu_to_gpu_bytes,
        "fault_digest": run.fault_digest,
    }


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
        assert pinned["h2d_bytes"] > 0
        assert pinned["aborts"] > 0  # clean cells: genuine OOM
        if cell[2]:
            assert pinned["fault_digest"] is not None
            assert pinned["retries"] > 0


if __name__ == "__main__":
    db = matrix_database()
    table = {cell_id(cell): measure(db, cell) for cell in CELLS}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, row in table.items():
        print(name, row)
