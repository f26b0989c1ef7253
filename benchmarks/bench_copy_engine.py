"""Copy-engine benchmark: transfer/compute overlap pays for itself.

Exercises ``repro.hardware.copy_engine`` end to end and gates the
tentpole guarantees:

* **overlap speedup** — on a transfer-bound sweep (cold cache, two
  co-processors, parallel users: the Fig. 6/15 shape where the bus is
  the bottleneck) the asynchronous copy engine beats the serialized
  single-channel bus by at least ``MIN_SPEEDUP``;
* **result identity** — enabling the engine (duplex channels,
  coalescing, prefetch) changes scheduling, never answers: the query
  result tables are byte-identical to the baseline run and both are
  cross-checked against the reference evaluator (``validate=True``);
* **determinism under faults** — with the engine on and PCIe faults
  injected, the same seed twice yields the identical fault schedule
  digest, makespan, and results;
* **zero overhead when disabled** — with ``copy_engine=False`` the
  engine is never constructed, its counters stay zero, and varying the
  engine-only knobs (chunk size, coalescing, prefetch depth) cannot
  change a single simulated timing or result byte.

The exit code is nonzero iff any gate fails.  Writes ``BENCH_PR4.json``.

Run standalone:  PYTHONPATH=src python benchmarks/bench_copy_engine.py
Or under pytest: PYTHONPATH=src python -m pytest benchmarks/bench_copy_engine.py

``REPRO_FAST=1`` shrinks the sweep (CI smoke mode).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.faults import FaultConfig  # noqa: E402
from repro.hardware import SystemConfig  # noqa: E402
from repro.hardware.calibration import GIB, MIB  # noqa: E402
from repro.harness import experiments as E  # noqa: E402
from repro.harness.runner import run_workload  # noqa: E402
from repro.workloads import ssb  # noqa: E402

FAST = os.environ.get("REPRO_FAST", "").strip() not in ("", "0")

OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_PR4.json"
)

SIZES = {
    "scale_factor": 5 if FAST else 10,
    "users": (4,) if FAST else (4, 8),
    "repetitions": 1 if FAST else 2,
    "gpu_count": 2,
}

SEED = 7

#: the overlap gate: engine makespan must beat the serialized bus by
#: at least this factor on the transfer-bound sweep
MIN_SPEEDUP = 1.3

BASE_CONFIG = SystemConfig(
    gpu_count=SIZES["gpu_count"],
    gpu_memory_bytes=int(4 * GIB),
    gpu_cache_bytes=int(1.5 * GIB),
)


def _run(config, users, faults=None, validate=False):
    """One cold-cache SSB run; returns (WorkloadResult, results digest)."""
    database = E.ssb_database(SIZES["scale_factor"])
    run = run_workload(
        database, ssb.workload(database), "runtime",
        config=config, users=users, repetitions=SIZES["repetitions"],
        warm_cache=False, collect_results=True, validate=validate,
        faults=faults,
    )
    return run, _digest_results(run.results)


def _digest_results(results) -> str:
    payload = repr(sorted(
        (name, tuple(table.row_tuples())) for name, table in results.items()
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Gate 1: overlap speedup on the transfer-bound sweep
# ---------------------------------------------------------------------------

def gate_overlap_speedup():
    rows = []
    worst = float("inf")
    for users in SIZES["users"]:
        base, _ = _run(BASE_CONFIG, users)
        eng, _ = _run(BASE_CONFIG.with_copy_engine(True), users)
        speedup = base.seconds / eng.seconds if eng.seconds else float("inf")
        worst = min(worst, speedup)
        m = eng.metrics
        rows.append({
            "users": users,
            "baseline_seconds": base.seconds,
            "engine_seconds": eng.seconds,
            "speedup": speedup,
            "overlap_ratio": m.overlap_ratio,
            "queue_seconds": m.transfer_queue_seconds,
            "coalesced_transfers": m.coalesced_transfers,
            "prefetch_transfers": m.prefetch_transfers,
            "prefetch_hits": m.prefetch_hits,
        })
    return {
        "rows": rows,
        "min_speedup_required": MIN_SPEEDUP,
        "worst_speedup": worst,
        "identical": worst >= MIN_SPEEDUP,
    }


# ---------------------------------------------------------------------------
# Gate 2: byte-identical results — baseline vs engine vs reference
# ---------------------------------------------------------------------------

def gate_result_identity():
    users = SIZES["users"][0]
    base, base_digest = _run(BASE_CONFIG, users, validate=True)
    eng, eng_digest = _run(BASE_CONFIG.with_copy_engine(True), users,
                           validate=True)
    identical = base_digest == eng_digest
    return {
        "users": users,
        "results_digest": base_digest,
        "validated_against_reference": True,
        "identical": identical,
    }, base_digest


# ---------------------------------------------------------------------------
# Gate 3: determinism — engine + injected PCIe faults, same seed twice
# ---------------------------------------------------------------------------

def gate_determinism(rate: float = 0.05):
    config = BASE_CONFIG.with_copy_engine(True)
    spec = FaultConfig.uniform(rate, seed=SEED)
    users = SIZES["users"][0]
    first, first_digest = _run(config, users, faults=spec, validate=True)
    second, second_digest = _run(config, users, faults=spec)
    identical = (first.fault_digest == second.fault_digest
                 and first.faults_injected == second.faults_injected
                 and first.seconds == second.seconds
                 and first_digest == second_digest)
    return {
        "rate": rate,
        "faults_injected": first.faults_injected,
        "schedule_digest": first.fault_digest,
        "schedules_identical": first.fault_digest == second.fault_digest,
        "timings_identical": first.seconds == second.seconds,
        "results_identical": first_digest == second_digest,
        "identical": identical,
    }


# ---------------------------------------------------------------------------
# Gate 4: disabled engine costs nothing and knobs are inert
# ---------------------------------------------------------------------------

def gate_zero_overhead(reference_digest: str):
    from repro.metrics import MetricsCollector
    from repro.hardware import HardwareSystem
    from repro.sim import Environment

    users = SIZES["users"][0]
    plain, plain_digest = _run(BASE_CONFIG, users)
    knobs, knobs_digest = _run(
        BASE_CONFIG.with_copy_engine(
            False, copy_chunk_bytes=int(MIB), copy_coalescing=False,
            prefetch_depth=0,
        ),
        users,
    )
    m = plain.metrics
    counters_zero = (m.coalesced_transfers == 0
                     and m.prefetch_transfers == 0
                     and m.prefetch_hits == 0
                     and m.overlapped_transfer_seconds == 0.0)
    # one link model: "disabled" means the serialized topology
    serialized = not HardwareSystem(
        Environment(), BASE_CONFIG, MetricsCollector()).bus.asynchronous
    identical = (plain.seconds == knobs.seconds
                 and plain_digest == knobs_digest
                 and plain_digest == reference_digest
                 and counters_zero and serialized)
    return {
        "plain_seconds": plain.seconds,
        "inert_knob_seconds": knobs.seconds,
        "timings_identical": plain.seconds == knobs.seconds,
        "results_identical": plain_digest == knobs_digest,
        "serialized_when_disabled": serialized,
        "engine_counters_zero": counters_zero,
        "identical": identical,
    }


# ---------------------------------------------------------------------------


def main() -> int:
    print("copy-engine benchmark: SF {}, {} GPUs, users {}{}".format(
        SIZES["scale_factor"], SIZES["gpu_count"], SIZES["users"],
        ", REPRO_FAST" if FAST else ""))
    report = {
        "benchmark": "copy_engine",
        "fast_mode": FAST,
        "seed": SEED,
        "gates": {},
    }

    overlap = gate_overlap_speedup()
    report["gates"]["overlap_speedup"] = overlap
    print("overlap speedup: identical={} (worst {:.3f}x, need {:.2f}x)"
          .format(overlap["identical"], overlap["worst_speedup"],
                  MIN_SPEEDUP))
    for row in overlap["rows"]:
        print("  users {:>2} -> {:.4f}s bus vs {:.4f}s engine "
              "({:.3f}x, overlap {:.2f}, coalesced {}, "
              "prefetch hits {})".format(
                  row["users"], row["baseline_seconds"],
                  row["engine_seconds"], row["speedup"],
                  row["overlap_ratio"], row["coalesced_transfers"],
                  row["prefetch_hits"]))

    identity, reference_digest = gate_result_identity()
    report["gates"]["result_identity"] = identity
    print("result identity: identical={identical} "
          "(digest {results_digest:.12s}..., validated)".format(**identity))

    determinism = gate_determinism()
    report["gates"]["determinism"] = determinism
    print("determinism:     identical={identical} "
          "({faults_injected} faults, digest {schedule_digest:.12s}...)"
          .format(**determinism))

    zero = gate_zero_overhead(reference_digest)
    report["gates"]["zero_overhead"] = zero
    print("zero overhead:   identical={identical} "
          "({plain_seconds:.4f}s plain vs {inert_knob_seconds:.4f}s "
          "inert knobs, serialized={serialized_when_disabled})"
          .format(**zero))

    report["all_gates_pass"] = all(
        gate["identical"] for gate in report["gates"].values()
    )
    with open(OUTPUT, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote {}".format(os.path.normpath(OUTPUT)))
    return 0 if report["all_gates_pass"] else 1


def test_copy_engine_gates():
    """Pytest entry point: every copy-engine gate holds; the report is
    written."""
    assert main() == 0


if __name__ == "__main__":
    sys.exit(main())
