"""Every view of ``MetricsCollector`` over three seeded runs, held to
the values recorded at the commit *before* the rare-event fields moved
into the one labelled counter (``count`` / ``total`` / ``by``).

``tests/golden/metrics_views.json`` holds, for a chaos service run, a
batch run with split execution + lifecycle + faults, and a
``MorselPool`` under process faults folded in with ``record_metrics``,
the output of every ``*_summary`` / ``*_ledger`` / ``*_report`` view:
floats as ``float.hex``, dictionaries as ordered ``[key, value]`` pairs
(``repro run`` / ``repro serve`` print several views in key order).

Regenerate (only when a view changes on purpose):
``PYTHONPATH=src:. python tests/test_metrics_views.py``
"""

import functools
import itertools
import json
import os
import pickle

import pytest

from repro.faults import FaultConfig

from repro.hardware import SystemConfig
from repro.hardware.calibration import MIB
from repro.harness import run_workload
from repro.harness.parallel import MorselPool
from repro.harness.service import ServiceConfig, run_service
from repro.metrics import MetricsCollector
from repro.storage import shm
from repro.workloads import ssb

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "metrics_views.json")


def service_run():
    """The ``serve_chaos_append`` shape of the e2e benchmark, smaller and
    overloaded: diurnal arrivals, deadlines, appends, device chaos,
    tenant-level sheds and degrades, starvation promotions."""
    database = ssb.generate(scale_factor=1, data_scale=2e-3, seed=7)
    service = ServiceConfig(
        duration_seconds=4.0, arrivals="diurnal", rate=250,
        deadline_seconds=0.3, latency_target_seconds=0.2,
        starvation_seconds=0.5, mutation_interval_seconds=1.5,
        validate=False, seed=47)
    return run_service(
        database, strategy="critical_path", service=service,
        query_names=["Q1.1", "Q2.1", "Q3.1", "Q4.1"],
        faults="pcie=0.04,heap=0.03,kernel=0.03,seed=29")


#: lifecycle spec and uniform fault rate per batch run: one per overload
#: policy, deadlines tight enough that some queries are cancelled
BATCH = {
    "batch_shed": ("max_inflight=4,policy=shed,deadline=0.1", "0.03"),
    "batch_queue": ("max_inflight=3,policy=queue,deadline=0.15", "0.05"),
    "batch_degrade": ("max_inflight=3,policy=degrade-to-cpu,deadline=0.2",
                      "0.05"),
}


def batch_run(name):
    """Split execution under heap pressure with admission control,
    deadlines and uniform device faults."""
    lifecycle, faults = BATCH[name]
    database = ssb.generate(scale_factor=1, data_scale=2e-3, seed=99)
    config = SystemConfig(split=True, gpu_memory_bytes=64 * MIB,
                          gpu_cache_bytes=24 * MIB)
    return run_workload(
        database, ssb.workload(database), "data_driven_chopping",
        config=config, users=8, repetitions=3, faults=faults,
        lifecycle=lifecycle)


def pool_metrics():
    """A ``MorselPool`` under process chaos (two crashes and a hang are
    planned at this seed), folded into a collector."""
    database = ssb.generate(scale_factor=0.01, data_scale=0.03, seed=123)
    metrics = MetricsCollector()
    with MorselPool(database, ssb.workload(database), jobs=2,
                    faults="crash=0.1,hang=0.05,seed=6",
                    heartbeat_seconds=0.4) as pool:
        pool.run_queries()
        pool.record_metrics(metrics)
    return metrics


def views(metrics, targets=None):
    """Every derived view of one collector, by name."""
    return {
        "summary": metrics.summary(),
        "fault_summary": metrics.fault_summary(),
        "lifecycle_summary": metrics.lifecycle_summary(),
        "split_summary": metrics.split_summary(),
        "service_summary": metrics.service_summary(),
        "pool_summary": metrics.pool_summary(),
        "slo_ledger": metrics.slo_ledger(targets),
        "tenant_ledger": metrics.tenant_ledger(),
        "tenant_fault_report": metrics.tenant_fault_report(),
        "per_query_fault_report": metrics.per_query_fault_report(),
        "latencies_by_query": metrics.latencies_by_query(),
        "tail_latency_report": metrics.tail_latency_report(),
        "latency_p50_p99": [metrics.latency_percentile(0.50),
                            metrics.latency_percentile(0.99)],
        "breaker_transition_counts": metrics.breaker_transition_counts(),
        "breaker_open_seconds": metrics.breaker_open_seconds(),
    }


def encode(value):
    """JSON-able and exact: floats by ``float.hex``, dictionaries as
    ordered pairs."""
    if isinstance(value, dict):
        return [[key, encode(item)] for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, float):
        return value.hex()
    return value


@functools.lru_cache(maxsize=None)
def collect(name):
    """``(collector, slo targets, service result or None)`` of one run."""
    if name == "service":
        result = service_run()
        return result.metrics, result.targets, result
    if name in BATCH:
        return batch_run(name).metrics, None, None
    if not shm.available():
        pytest.skip("needs shared memory")
    return pool_metrics(), None, None


RUNS = ("service",) + tuple(BATCH) + ("pool",)


def recorded_views(name):
    """``{view: encoded value}`` of one run in the recording's form."""
    got = dict(encode(views(*collect(name)[:2])))
    # the one key the recording does not have: the pool counted it all
    # along, no view reported it
    pool = got["pool_summary"]
    assert "hang_cpu_grants" in dict(pool)
    got["pool_summary"] = [pair for pair in pool
                           if pair[0] != "hang_cpu_grants"]
    return got


@pytest.mark.parametrize("name", RUNS)
def test_every_view_equals_the_recording(name):
    with open(GOLDEN) as handle:
        want = json.load(handle)[name]
    got = recorded_views(name)
    for view, recorded in want:
        assert got[view] == recorded, view
    assert list(got) == [view for view, _ in want]


@pytest.mark.parametrize("name", RUNS)
def test_every_projection_adds_up_to_the_total(name):
    """A booking carries its labels once, so grouping a count by any
    label it carries loses nothing."""
    metrics, _, _ = collect(name)
    carried = {}
    for (booked, pairs) in metrics.counts:
        carried.setdefault(booked, set()).update(
            label for label, value in pairs if value is not None)
    assert carried
    for booked, labels in carried.items():
        for label in labels:
            assert metrics.total(booked) == sum(
                metrics.by(booked, label).values()), (booked, label)


def test_the_service_ledger_is_the_counter():
    metrics, _, result = collect("service")
    assert result.conserved()
    assert result.shed > 0 and result.degraded > 0
    assert metrics.total("sheds") == result.shed
    assert metrics.total("arrivals") == result.arrivals
    assert metrics.total("degraded") == result.degraded
    assert sum(row["shed"] for row in result.ledger.values()) == result.shed
    assert sum(row["shed"] for row in result.tenant_ledger.values()) == (
        result.shed)
    # exact per-tenant blame adds up to the global abort count
    assert sum(metrics.by("aborts", "tenant").values()) == metrics.aborts
    assert metrics.total("retries") == metrics.retries


@pytest.mark.parametrize("name", RUNS)
def test_a_populated_collector_survives_pickle(name):
    """It crosses processes inside ``CellOutcome``."""
    metrics, targets, _ = collect(name)
    clone = pickle.loads(pickle.dumps(metrics))
    assert clone == metrics
    assert encode(views(clone, targets)) == encode(views(metrics, targets))


def test_a_plain_batch_run_books_no_rare_event(monkeypatch):
    """The paper's own path touches the hot scalars only."""
    booked = []
    count = MetricsCollector.count
    monkeypatch.setattr(
        MetricsCollector, "count",
        lambda self, name, *args, **labels: (
            booked.append(name), count(self, name, *args, **labels)))
    database = ssb.generate(scale_factor=1, data_scale=2e-3, seed=99)
    run = run_workload(database, ssb.workload(database),
                       "data_driven_chopping", users=20)
    assert len(run.metrics.queries) == 13
    assert booked == []


@pytest.mark.skipif(not shm.available(), reason="needs shared memory")
def test_a_cpu_grant_of_the_hang_watchdog_reaches_pool_summary(monkeypatch):
    """A worker that misses its heartbeats but still accrues CPU is
    forgiven, not killed (docs/robustness.md): the pool counted that as
    ``hang_cpu_grants`` and no view reported it.  The CPU clock the
    watchdog reads is made to advance here, so the planned hang (frozen
    heartbeats, 0.5 s asleep) is granted instead of killed."""
    from repro.harness import parallel

    ticks = itertools.count(1)
    monkeypatch.setattr(parallel, "_proc_cpu_seconds",
                        lambda pid: float(next(ticks)))
    database = ssb.generate(scale_factor=0.01, data_scale=0.03, seed=123)
    faults = FaultConfig(hang=0.05, hang_seconds=0.5, seed=6)
    metrics, quiet = MetricsCollector(), MetricsCollector()
    with MorselPool(database, ssb.workload(database), jobs=2,
                    faults=faults, heartbeat_seconds=0.2) as pool:
        pool.run_queries()
        grants = pool.counters["hang_cpu_grants"]
        assert grants >= 1 and pool.counters["worker_hangs"] == 0
        pool.record_metrics(metrics)
        del pool.counters["hang_cpu_grants"]
        pool.record_metrics(quiet)
    summary = metrics.pool_summary()
    assert summary.pop("hang_cpu_grants") == grants
    others = quiet.pool_summary()
    assert others.pop("hang_cpu_grants") == 0
    assert summary == others and len(others) == 16


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:  # one run per line
        handle.write("{\n" + ",\n".join(
            "{}: {}".format(json.dumps(name), json.dumps(
                list(recorded_views(name).items()), separators=(",", ":")))
            for name in RUNS) + "\n}\n")
    print("wrote", GOLDEN)
