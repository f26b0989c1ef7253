"""Golden identity matrix for the query driver.

Batch sessions and the service dispatcher hand every query to one
driver (``repro.harness.runner.QueryDriver``).
``tests/golden/driver_matrix.json``
holds what each configuration below produced when the two had drivers
of their own: the makespan, every completed and cancelled query record
in order, the labelled counter, the fault digest, and the number of
events the run scheduled on the DES (a counting spy on
``Environment.schedule``).  Every run must reproduce them exactly.

* Batch: the eager, chopping and vectorized executors, each without
  the lifecycle layer and under a queueing, a shedding and a degrading
  admission gate, a deadline (alone and behind the queueing and the
  shedding gate), and hedging; the compile-time strategy
  (its own ``admission_limit`` gate) under a deadline; one run under
  device faults.
* Service: an eager and a chopping strategy, read-only and under
  diurnal overload with deadlines, appends, hedging and device faults.

Regenerate (only when the simulated model changes on purpose):
``PYTHONPATH=src:. python tests/test_driver_matrix.py``
"""

import json
import os

import pytest

from repro.hardware import SystemConfig
from repro.hardware.calibration import MIB
from repro.harness import run_workload
from repro.harness.service import ServiceConfig, run_service
from repro.sim import Environment
from repro.workloads import ssb

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "driver_matrix.json")

#: small enough a heap that operators abort on out-of-memory
PLATFORM = SystemConfig(gpu_memory_bytes=64 * MIB, gpu_cache_bytes=24 * MIB)
#: (strategy, processing model) per executor
EXECUTORS = {
    "eager": ("runtime", "operator"),
    "chopping": ("chopping", "operator"),
    "vectorized": ("runtime", "vectorized"),
}
#: lifecycle specs; the deadline cancels some queries of every executor
LIFECYCLES = {
    "off": None,
    "queue": "max_inflight=2",
    "shed": "max_inflight=1,policy=shed",
    "degrade": "max_inflight=1,policy=degrade-to-cpu",
    "deadline": "deadline=0.08",
    "hedge": "hedge=3",
    # a deadline behind the gate: cancelled while queued, shed while
    # its watchdog runs
    "queue_deadline": "max_inflight=2,deadline=0.08",
    "shed_deadline": "max_inflight=2,policy=shed,deadline=0.08",
}
BATCH = {
    "batch/{}/{}".format(executor, lifecycle): dict(
        strategy=strategy, processing_model=model, lifecycle=spec)
    for executor, (strategy, model) in EXECUTORS.items()
    for lifecycle, spec in LIFECYCLES.items()
}
BATCH["batch/compile_time/deadline"] = dict(
    strategy="admission_control", lifecycle="deadline=0.05")
BATCH["batch/chopping/faults"] = dict(
    strategy="chopping", faults="pcie=0.05,heap=0.03,seed=7")

SERVICE_QUERIES = ["Q1.1", "Q2.1", "Q3.1", "Q4.1"]
SERVICES = {
    "read_only": (ServiceConfig(duration_seconds=1.0, rate=40,
                                tenants_per_class=1, max_inflight=3,
                                seed=17), None),
    "chaos": (ServiceConfig(duration_seconds=2.0, arrivals="diurnal",
                            rate=250, deadline_seconds=0.1,
                            latency_target_seconds=0.05,
                            starvation_seconds=0.3,
                            mutation_interval_seconds=0.6,
                            hedge_factor=3.0, seed=47),
              "pcie=0.04,heap=0.03,kernel=0.03,seed=29"),
}
SERVICE = {
    "service/{}/{}".format(executor, shape): (strategy, shape)
    for executor, strategy in (("eager", "critical_path"),
                               ("chopping", "data_driven_chopping"))
    for shape in SERVICES
}
RUNS = tuple(BATCH) + tuple(SERVICE)


def matrix_database():
    return ssb.generate(scale_factor=1, data_scale=2e-3, seed=99)


def _exact(value):
    return value.hex() if isinstance(value, float) else value


def _record(record):
    fields = [record.name, record.user, record.start, record.end,
              record.admitted_at, record.aborts, record.wasted_seconds,
              record.retries, record.tenant, record.slo_class]
    if hasattr(record, "reason"):
        fields.append(record.reason)
    return [_exact(value) for value in fields]


def counted(run):
    """``(run(), events scheduled on any Environment meanwhile)``."""
    calls = [0]
    schedule = Environment.schedule

    def spy(self, *args, **kwargs):
        calls[0] += 1
        return schedule(self, *args, **kwargs)

    Environment.schedule = spy
    try:
        result = run()
    finally:
        Environment.schedule = schedule
    return result, calls[0]


def measure(database, name) -> dict:
    """The pinned observables of one configuration."""
    if name in BATCH:
        result, events = counted(lambda: run_workload(
            database, ssb.workload(database), config=PLATFORM, users=6,
            repetitions=2, validate=True, **BATCH[name]))
        extra = {}
    else:
        strategy, shape = SERVICE[name]
        service, faults = SERVICES[shape]
        result, events = counted(lambda: run_service(
            database, strategy=strategy, service=service,
            query_names=SERVICE_QUERIES, faults=faults))
        extra = {"arrivals": result.arrivals, "shed": result.shed,
                 "degraded": result.degraded, "epochs": result.epochs,
                 "identical": result.identical}
    metrics = result.metrics
    return dict(
        makespan=metrics.workload_seconds.hex(),
        queries=[_record(record) for record in metrics.queries],
        cancelled=[_record(record) for record in metrics.cancelled_queries],
        counts=[[booked, [list(pair) for pair in labels], _exact(amount)]
                for (booked, labels), amount in metrics.counts.items()],
        fault_digest=result.fault_digest,
        events=events,
        **extra)


@pytest.fixture(scope="module")
def database():
    return matrix_database()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", RUNS)
def test_run_matches_the_recording(database, golden, name):
    got = measure(database, name)
    want = golden[name]
    for key in want:
        assert got[key] == want[key], key
    assert sorted(got) == sorted(want)


def test_the_matrix_exercises_every_decision(golden):
    """The pins are only worth something if the runs reach every branch
    of a query's life: queued, shed, degraded, cancelled, hedged,
    retried, completed."""
    def booked(name, event):
        return sum(1 for entry in golden[name]["counts"]
                   if entry[0] == event)

    for executor in EXECUTORS:
        prefix = "batch/{}/".format(executor)
        assert golden[prefix + "off"]["queries"]
        assert booked(prefix + "queue", "admission_waits")
        assert booked(prefix + "shed", "sheds")
        assert booked(prefix + "degrade", "degraded")
        assert golden[prefix + "deadline"]["cancelled"]
        assert golden[prefix + "deadline"]["queries"]
        assert golden[prefix + "queue_deadline"]["cancelled"]
        assert booked(prefix + "shed_deadline", "sheds")
    assert booked("batch/chopping/hedge", "hedges_started")
    assert golden["batch/compile_time/deadline"]["cancelled"]
    assert golden["batch/chopping/faults"]["fault_digest"]
    for name in SERVICE:
        run = golden[name]
        assert run["queries"] and run["identical"]
        if name.endswith("chaos"):
            assert run["cancelled"] and run["shed"] and run["degraded"]
            assert run["epochs"] and run["fault_digest"]


if __name__ == "__main__":
    db = matrix_database()
    with open(GOLDEN, "w") as handle:  # one run per line
        handle.write("{\n" + ",\n".join(
            "{}: {}".format(json.dumps(name), json.dumps(
                measure(db, name), separators=(",", ":")))
            for name in RUNS) + "\n}\n")
    print("wrote", GOLDEN)
