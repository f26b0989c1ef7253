"""Golden identity matrix for the transfer model and the attempt loop.

{operator, vectorized} x {serialized, async} x {no faults,
pcie/kernel/heap faults} on a small 2-GPU SSB run, plus the same with
``split=True`` and with ``SystemConfig.coupled_gpu()`` (split on).
The simulated numbers of the pure cells in
``tests/golden/transfer_matrix.json`` were recorded at the commit
*before* ``PCIeBus`` was folded into ``CopyEngine`` and the retry loops
into ``ResilienceManager``; the split cells (id suffix ``/split``) at
the commit before the operator attempt, the split share and the
pipeline attempt became one attempt.  Every cell must reproduce them
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
#: (device memory, column cache) per processing model, sized so that
#: out-of-memory aborts, evictions and cross-device child relays all
#: occur without faults: operators stage whole columns on the heap,
#: pipelines only their breaker output
PLATFORM = {
    "operator": (64 * MIB, 24 * MIB),
    "vectorized": (228 * MIB, 224 * MIB),
}
CELLS = [
    (model, link, faulted, split)
    for split in (False, True)
    for model in ("operator", "vectorized")
    for link in LINKS
    for faulted in (False, True)
    if split or LINKS[link] is not None
]


def cell_id(cell) -> str:
    model, link, faulted, split = cell
    return "{}/{}/{}{}".format(model, link,
                               "faults" if faulted else "clean",
                               "/split" if split else "")


def config_of(model, link, split) -> SystemConfig:
    if LINKS[link] is None:
        return SystemConfig.coupled_gpu(gpu_count=2, split=split)
    memory, cache = PLATFORM[model]
    return SystemConfig(gpu_count=2, gpu_memory_bytes=memory,
                        gpu_cache_bytes=cache, split=split, **LINKS[link])


def measure(database, cell) -> dict:
    """The pinned simulated statistics of one matrix cell."""
    model, link, faulted, split = cell
    config = config_of(model, link, split)
    run = run_workload(
        database, ssb.workload(database), "runtime", config=config,
        users=6, repetitions=2, processing_model=model,
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
        model, link, faulted, split = cell
        assert pinned["h2d_bytes"] > 0
        if LINKS[link] is not None:
            assert pinned["aborts"] > 0  # clean cells: genuine OOM
        if faulted:
            assert pinned["fault_digest"] is not None
            assert pinned["retries"] > 0


@pytest.mark.parametrize("cell", [cell for cell in CELLS if cell[3]],
                         ids=cell_id)
def test_split_cells_split(golden, cell):
    """Each split cell runs the split: operator cells split operators
    (and degrade some under faults); a vectorized cell's makespan
    differs from the same cell without split, so the vector ratio of
    the split cost model is what placed its vectors.  The coupled
    platform has no cell without split: with no transfer term the
    split cost model's balance point is the compute-rate split, up to
    the last place of a float."""
    model, link, faulted, _ = cell
    pinned = golden[cell_id(cell)]
    if model == "operator":
        assert pinned["split_operators"] > 0
        if faulted:
            assert pinned["degraded"] > 0
    elif LINKS[link] is not None:
        unsplit = golden[cell_id((model, link, faulted, False))]
        assert pinned["makespan"] != unsplit["makespan"]


if __name__ == "__main__":
    db = matrix_database()
    table = {cell_id(cell): measure(db, cell) for cell in CELLS}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, row in table.items():
        print(name, row)
