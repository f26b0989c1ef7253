"""Fused morsel execution: speedup, scaling, identity.

Exercises ``repro.engine.morsel`` and the shared-memory
:class:`~repro.harness.parallel.MorselPool` end to end and gates the
tentpole guarantees:

* **fused speedup** — the SSB batch on the default fused path
  (``execute_functional``) is at least ``FUSED_TARGET`` times as fast
  as the operator-at-a-time loop (``execute_operators``; plan cache
  off so every run re-executes);
* **parallel speedup** — a pre-started pool of fused workers over
  shared-memory columns reaches at least ``PARALLEL_TARGET`` of the
  operator-at-a-time baseline's speed at ``jobs=2`` (pool start-up,
  the shm export, and per-worker plan builds happen outside the timed
  region and are reported as ``setup_seconds``);
* **byte identity** — every SSB and TPC-H query returns exactly the
  same rows on both paths, across morsel sizes from 1000 rows to one
  morsel spanning the whole fact table.

The exit code is nonzero iff any gate fails.  Writes ``BENCH_PR6.json``.

Run standalone:  PYTHONPATH=src python benchmarks/bench_morsels.py
Or under pytest: PYTHONPATH=src python -m pytest benchmarks/bench_morsels.py

``REPRO_FAST=1`` shrinks sizes and relaxes the speedup targets (CI
smoke machines are small and noisy; the committed full-mode report is
what the trajectory gate enforces).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.engine import kernels, morsel, plan_cache  # noqa: E402
from repro.engine.execution.functional import (  # noqa: E402
    execute_functional,
    execute_operators,
)
from repro.workloads import ssb, tpch  # noqa: E402

FAST = os.environ.get("REPRO_FAST", "").strip() not in ("", "0")

OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_PR6.json"
)

SIZES = {
    "reps": 2 if FAST else 5,
    "data_scale": 0.02 if FAST else 0.1,
    "identity_scale": 0.01 if FAST else 0.02,
    "jobs": 2,
}

#: fused sequential SSB batch vs the operator-at-a-time loop: the
#: default engine must not lose to its own fallback.  (The 3x this gate
#: once asked for was mostly the fused path's join probers; ``HashJoin``
#: now probes through the same ones, so the two engines differ by the
#: per-morsel locality and the dense group ids only — x1.2-1.4 here.)
FUSED_TARGET = 1.0
#: morsel pool at jobs=2 vs the same baseline.  In full mode (600K fact
#: rows, two cores) the pool must not lose to the operator loop: since
#: its fixed costs per query went (a message per morsel, a pipeline
#: build and three dense-domain merges — 0.130 s of this batch before,
#: 0.051-0.054 s after) it reads x1.16-1.43 here.  On smoke machines
#: (1 vCPU, shared, 120K rows) it only gates against collapse, as it
#: always did.
PARALLEL_TARGET = 0.1 if FAST else 1.0

#: identity sweep: tiny morsels (many partials), the default, and one
#: morsel covering the entire fact table (degenerate single range)
MORSEL_SIZES = (1000, morsel.DEFAULT_MORSEL_ROWS, 1_000_000_000)


def _best(fn, reps):
    best = None
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best, result


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _batch(database, queries, execute=execute_functional):
    return {
        query.name: execute(
            query.instantiate(), database).payload.row_tuples()
        for query in queries
    }


# ---------------------------------------------------------------------------
# Gates 1 + 2: fused sequential speedup and pool scaling
# ---------------------------------------------------------------------------

def bench_speedups():
    from repro.harness.parallel import MorselPool
    from repro.storage import shm

    database = ssb.generate(scale_factor=1.0,
                            data_scale=SIZES["data_scale"], seed=42)
    queries = ssb.workload(database)

    _batch(database, queries, execute_operators)  # warm the kernel caches
    base_seconds, base_rows = _best(
        lambda: _batch(database, queries, execute_operators), SIZES["reps"])
    digests = {name: _digest(rows) for name, rows in base_rows.items()}

    morsel.reset_stats()
    _batch(database, queries)  # warm the fused-path caches
    fused_seconds, fused_rows = _best(
        lambda: _batch(database, queries), SIZES["reps"])
    stats = morsel.snapshot_stats()
    fused_digests = {name: _digest(rows)
                     for name, rows in fused_rows.items()}

    fused_gate = {
        "queries": len(queries),
        "fact_rows": database.table("lineorder").actual_rows,
        "baseline_seconds": round(base_seconds, 6),
        "fused_seconds": round(fused_seconds, 6),
        "speedup": round(base_seconds / fused_seconds, 4),
        "target": FUSED_TARGET,
        "declined_queries": stats["declined_queries"],
        "identical": (fused_digests == digests
                      and base_seconds / fused_seconds >= FUSED_TARGET),
    }

    if ("fork" not in multiprocessing.get_all_start_methods()
            or not shm.available()):
        parallel_gate = {
            "jobs": 1,
            "speedup": 1.0,
            "target": PARALLEL_TARGET,
            "identical": True,
            "note": "fork/shm unavailable; parallel gate skipped",
        }
        return fused_gate, parallel_gate, stats

    setup_start = time.perf_counter()
    pool = MorselPool(database, queries, workload="ssb",
                      jobs=SIZES["jobs"])
    try:
        pool.warm()
        pool.run_queries()  # build per-worker pipelines outside timing
        setup_seconds = time.perf_counter() - setup_start
        pool_seconds, pool_results = _best(
            pool.run_queries, SIZES["reps"])
        fallbacks = pool.fallbacks
    finally:
        pool.close()
        shm.invalidate(database)
    pool_digests = {
        name: _digest(result.payload.row_tuples())
        for name, result in pool_results.items()
    }
    parallel_gate = {
        "jobs": SIZES["jobs"],
        "sequential_seconds": round(base_seconds, 6),
        "parallel_seconds": round(pool_seconds, 6),
        "setup_seconds": round(setup_seconds, 6),
        "speedup": round(base_seconds / pool_seconds, 4),
        "target": PARALLEL_TARGET,
        "fallbacks": fallbacks,
        "identical": (pool_digests == digests and fallbacks == 0
                      and base_seconds / pool_seconds >= PARALLEL_TARGET),
    }
    return fused_gate, parallel_gate, stats


# ---------------------------------------------------------------------------
# Gate 3: byte identity across morsel sizes, SSB and TPC-H
# ---------------------------------------------------------------------------

def gate_identity():
    checked = 0
    diverged = []
    for module, seed in ((ssb, 123), (tpch, 321)):
        database = module.generate(scale_factor=1.0,
                                   data_scale=SIZES["identity_scale"],
                                   seed=seed)
        queries = module.workload(database)
        reference = _batch(database, queries, execute_operators)
        for rows_per_morsel in MORSEL_SIZES:
            with morsel.sized(rows_per_morsel):
                fused = _batch(database, queries)
            for name in reference:
                checked += 1
                if fused[name] != reference[name]:
                    diverged.append("{}:{}@{}".format(
                        module.__name__, name, rows_per_morsel))
    return {
        "comparisons": checked,
        "morsel_sizes": list(MORSEL_SIZES),
        "diverged": diverged,
        "identical": not diverged,
    }


# ---------------------------------------------------------------------------


def main() -> int:
    print("morsel benchmark: jobs={}, cpus={}{}".format(
        SIZES["jobs"], os.cpu_count(), ", REPRO_FAST" if FAST else ""))
    plan_cache.enable(False)  # every run must re-execute
    try:
        report = {
            "benchmark": "fused_morsels",
            "cpu_count": os.cpu_count(),
            "fast_mode": FAST,
            "morsel_rows": morsel.morsel_rows(),
            "gates": {},
        }

        fused, parallel, stats = bench_speedups()
        report["gates"]["fused_speedup"] = fused
        print("fused ssb batch: {speedup:.2f}x vs operator-at-a-time "
              "(target {target}x, declines {declined_queries})"
              .format(**fused))
        report["gates"]["parallel_speedup"] = parallel
        print("morsel pool:     {speedup:.2f}x at jobs={jobs} "
              "(target {target}x)".format(**parallel))

        report["gates"]["byte_identity"] = gate_identity()
        print("byte identity:   {comparisons} comparisons across "
              "morsel sizes {morsel_sizes}, identical={identical}"
              .format(**report["gates"]["byte_identity"]))

        report["morsel_stats"] = stats
    finally:
        plan_cache.enable(True)
        kernels.invalidate()

    report["all_gates_pass"] = all(
        gate["identical"] for gate in report["gates"].values()
    )
    with open(OUTPUT, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote {}".format(os.path.normpath(OUTPUT)))
    return 0 if report["all_gates_pass"] else 1


def test_morsel_gates():
    """Pytest entry point: every fused-morsel gate holds; the report is
    written."""
    assert main() == 0


if __name__ == "__main__":
    sys.exit(main())
