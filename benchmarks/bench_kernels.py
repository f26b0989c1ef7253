"""Kernel acceleration: cached join indexes, zone maps, lazy selection.

Benchmarks the ``repro.engine.kernels`` layer against the seed engine
paths:

* per-kernel micro timings — a repeated join (cold kernel cache vs
  warm), a zone-map-pruned scan on a sorted column, and the B.2
  selection-operator chain with mask combination;
* end-to-end SSB and TPC-H query batches with the kernels off vs on
  (plan cache disabled so every run re-executes), sequential and over
  a shared-memory :class:`~repro.harness.parallel.MorselPool` of
  ``REPRO_JOBS`` fused workers;
* a divergence gate — every SSB/TPC-H query on a small database is
  checked against the naive reference evaluator with the kernels
  engaged (small zone-map blocks so pruning actually runs).

Every timed comparison asserts byte-identical result tables; the exit
code is nonzero iff any identity or reference check fails (speedups
are recorded, not gated — CI machines are noisy).  Writes
``BENCH_PR2.json``.

Run standalone:  PYTHONPATH=src python benchmarks/bench_kernels.py
Or under pytest: PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py

``REPRO_FAST=1`` shrinks sizes (CI smoke mode); ``REPRO_JOBS``
overrides the worker count (default: min(4, cpu count)).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.engine import (  # noqa: E402
    Planner,
    execute_reference,
    kernels,
    plan_cache,
)
from repro.engine.execution.functional import execute_operators  # noqa: E402
from repro.engine.expressions import (  # noqa: E402
    And,
    ColumnRef,
    Comparison,
    Literal,
)
from repro.engine.operators import (  # noqa: E402
    HashJoin,
    Materialize,
    PhysicalPlan,
    ScanSelect,
)
from repro.sql import bind  # noqa: E402
from repro.storage import ColumnType, Database  # noqa: E402
from repro.workloads import micro, ssb, tpch  # noqa: E402

FAST = os.environ.get("REPRO_FAST", "").strip() not in ("", "0")

#: Actual-array sizing: small enough for CI smoke runs, large enough in
#: full mode that the kernel wins dominate fixed per-query overhead.
SIZES = {
    "reps": 2 if FAST else 5,
    "ssb_data_scale": 0.02 if FAST else 0.1,
    "tpch_data_scale": 0.02 if FAST else 0.1,
    "join_build_rows": 120_000 if FAST else 1_200_000,
    "join_probe_rows": 20_000 if FAST else 150_000,
    "zone_rows": 300_000 if FAST else 2_000_000,
}

OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_PR2.json"
)

JOIN_TARGET = 1.5       # repeated-join micro, cached vs cold
SSB_TARGET = 1.2        # end-to-end SSB batch, kernels on vs off
PARALLEL_TARGET = 1.0   # morsel-pool SSB vs sequential: never slower


def _default_jobs() -> int:
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if raw:
        return max(int(raw), 1)
    return max(min(4, os.cpu_count() or 1), 2)


def _best(fn, reps):
    """Best-of-``reps`` wall time; returns (seconds, last result)."""
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


# ---------------------------------------------------------------------------
# Micro: repeated join, cold kernel cache vs warm
# ---------------------------------------------------------------------------

def _join_db() -> Database:
    db = Database("joinbench")
    rng = np.random.default_rng(7)
    n_build = SIZES["join_build_rows"]
    n_probe = SIZES["join_probe_rows"]
    # Non-dense keys (odd, shuffled) so the sorted-index path — the one
    # whose argsort the cache amortises — is exercised, not the
    # dense-arange shortcut.
    keys = np.random.default_rng(11).permutation(
        np.arange(n_build, dtype=np.int32) * 2 + 1
    )
    build = db.create_table("parts", nominal_rows=n_build)
    build.add_column("pkey", ColumnType.INT32, keys)
    build.add_column("pval", ColumnType.INT32,
                     rng.integers(0, 1000, n_build).astype(np.int32))
    probe = db.create_table("orders", nominal_rows=n_probe)
    probe.add_column("fkey", ColumnType.INT32, rng.choice(keys, n_probe))
    probe.add_column("value", ColumnType.INT32,
                     rng.integers(0, 1000, n_probe).astype(np.int32))
    return db


def _join_plan() -> PhysicalPlan:
    probe = ScanSelect("orders")
    build = ScanSelect("parts")
    join = HashJoin(probe, build, ColumnRef("orders", "fkey"),
                    ColumnRef("parts", "pkey"))
    root = Materialize(join, [
        ("value", ColumnRef("orders", "value")),
        ("pval", ColumnRef("parts", "pval")),
    ])
    return PhysicalPlan(root, name="join_micro")


def bench_join_repeated():
    db = _join_db()

    def run():
        # Fresh plan per run: plan templates memoise their own result.
        return execute_operators(_join_plan(), db).payload.row_tuples()

    def run_cold():
        kernels.invalidate(db)
        return run()

    cold_seconds, cold_rows = _best(run_cold, SIZES["reps"])
    run()  # prime the join index
    warm_seconds, warm_rows = _best(run, SIZES["reps"])
    return {
        "build_rows": SIZES["join_build_rows"],
        "probe_rows": SIZES["join_probe_rows"],
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "speedup": round(cold_seconds / warm_seconds, 4),
        "target": JOIN_TARGET,
        "identical": cold_rows == warm_rows,
    }


# ---------------------------------------------------------------------------
# Micro: zone-map-pruned scan on a sorted column
# ---------------------------------------------------------------------------

def _zone_db() -> Database:
    db = Database("zonebench")
    n = SIZES["zone_rows"]
    events = db.create_table("events", nominal_rows=n)
    events.add_column("ts", ColumnType.INT32,
                      (np.arange(n, dtype=np.int64) // 3).astype(np.int32))
    events.add_column("v", ColumnType.INT32,
                      np.random.default_rng(3).integers(
                          0, 100, n).astype(np.int32))
    return db


def _zone_plan(lo: int, hi: int) -> PhysicalPlan:
    ts = ColumnRef("events", "ts")
    scan = ScanSelect("events", And([
        Comparison(">=", ts, Literal(lo)),
        Comparison("<=", ts, Literal(hi)),
    ]))
    root = Materialize(scan, [("v", ColumnRef("events", "v"))])
    return PhysicalPlan(root, name="zone_micro")


def bench_zone_map_scan():
    db = _zone_db()
    mid = SIZES["zone_rows"] // 6
    lo, hi = mid, mid + 1000

    def run():
        return execute_operators(_zone_plan(lo, hi), db).payload.row_tuples()

    kernels.enable(False)
    full_seconds, full_rows = _best(run, SIZES["reps"])
    kernels.enable(True)
    kernels.invalidate(db)
    kernels.reset_stats()
    run()  # prime the zone map
    skipped = kernels.stats["blocks_skipped"]
    pruned_seconds, pruned_rows = _best(run, SIZES["reps"])
    return {
        "rows": SIZES["zone_rows"],
        "full_seconds": round(full_seconds, 6),
        "pruned_seconds": round(pruned_seconds, 6),
        "speedup": round(full_seconds / pruned_seconds, 4),
        "blocks_skipped_per_scan": skipped,
        "identical": full_rows == pruned_rows,
    }


# ---------------------------------------------------------------------------
# Micro: the B.2 selection-operator chain (mask AND vs tid gather)
# ---------------------------------------------------------------------------

def bench_selection_chain(db: Database):
    def run():
        plan = micro.build_parallel_selection_plan(db)
        return execute_operators(plan, db).payload.row_tuples()

    kernels.enable(False)
    seed_seconds, seed_rows = _best(run, SIZES["reps"])
    kernels.enable(True)
    masked_seconds, masked_rows = _best(run, SIZES["reps"])
    return {
        "rows": db.table("lineorder").actual_rows,
        "seed_seconds": round(seed_seconds, 6),
        "masked_seconds": round(masked_seconds, 6),
        "speedup": round(seed_seconds / masked_seconds, 4),
        "identical": seed_rows == masked_rows,
    }


# ---------------------------------------------------------------------------
# End to end: SSB / TPC-H batches, kernels off vs on
# ---------------------------------------------------------------------------

def _bind_all(db: Database, queries):
    return {name: bind(sql, db, name=name) for name, sql in queries.items()}


def _run_batch(db: Database, specs):
    out = {}
    for name, spec in specs.items():
        plan = Planner(db).plan(spec)
        out[name] = execute_operators(plan, db).payload.row_tuples()
    return out


def bench_end_to_end(label: str, db: Database, specs):
    def run():
        return _run_batch(db, specs)

    kernels.enable(False)
    off_seconds, off_rows = _best(run, SIZES["reps"])
    kernels.enable(True)
    kernels.invalidate(db)
    run()  # warm the kernel caches
    on_seconds, on_rows = _best(run, SIZES["reps"])
    entry = {
        "queries": len(specs),
        "fact_rows": max(t.actual_rows for t in db.tables),
        "off_seconds": round(off_seconds, 6),
        "on_seconds": round(on_seconds, 6),
        "speedup": round(off_seconds / on_seconds, 4),
        "identical": off_rows == on_rows,
    }
    if label == "ssb":
        entry["target"] = SSB_TARGET
    return entry


# ---------------------------------------------------------------------------
# End to end: the SSB batch over the shared-memory morsel pool
# ---------------------------------------------------------------------------

def bench_parallel(db: Database, jobs: int):
    """Intra-query parallel SSB over :class:`MorselPool` workers.

    The historical version of this benchmark forked a worker per query
    over a copy-on-write database and *lost* to sequential execution
    (speedup ~0.35x).  The pool version exports the columns once via
    shared memory, keeps persistent fused workers, and ships one merged
    partial per worker chunk — pool start-up and the shm export happen
    outside the timed region and are reported as ``setup_seconds``.
    """
    from repro.harness.parallel import MorselPool
    from repro.storage import shm

    kernels.enable(True)
    queries = ssb.workload(db)

    def run_sequential():
        return {
            query.name: execute_operators(
                query.instantiate(), db).payload.row_tuples()
            for query in queries
        }

    run_sequential()  # warm the kernel caches
    sequential_seconds, rows = _best(run_sequential, SIZES["reps"])
    digests = {name: _digest(rows[name]) for name in rows}

    if ("fork" not in multiprocessing.get_all_start_methods()
            or not shm.available()):
        return {
            "jobs": 1,
            "sequential_seconds": round(sequential_seconds, 6),
            "parallel_seconds": round(sequential_seconds, 6),
            "setup_seconds": 0.0,
            "speedup": 1.0,
            "target": PARALLEL_TARGET,
            "fallbacks": 0,
            "identical": True,
            "note": "fork/shm unavailable; parallel run skipped",
        }

    setup_start = time.perf_counter()
    pool = MorselPool(db, queries, workload="ssb", jobs=jobs)
    try:
        pool.warm()
        pool.run_queries()  # build per-worker pipelines outside timing
        setup_seconds = time.perf_counter() - setup_start
        parallel_seconds, results = _best(pool.run_queries, SIZES["reps"])
        fallbacks = pool.fallbacks
    finally:
        pool.close()
        shm.invalidate(db)
    parallel_digests = {
        name: _digest(result.payload.row_tuples())
        for name, result in results.items()
    }
    return {
        "jobs": jobs,
        "sequential_seconds": round(sequential_seconds, 6),
        "parallel_seconds": round(parallel_seconds, 6),
        "setup_seconds": round(setup_seconds, 6),
        "speedup": round(sequential_seconds / parallel_seconds, 4),
        "target": PARALLEL_TARGET,
        "fallbacks": fallbacks,
        "identical": parallel_digests == digests,
    }


# ---------------------------------------------------------------------------
# Divergence gate: kernels vs the naive reference evaluator
# ---------------------------------------------------------------------------

def check_reference() -> dict:
    """Every SSB/TPC-H query on a small database, kernels engaged with
    small zone-map blocks, against the row-at-a-time reference."""
    kernels.enable(True)
    kernels.set_block_rows(96)
    try:
        checked = 0
        diverged = []
        for module, seed in ((ssb, 123), (tpch, 321)):
            db = module.generate(scale_factor=0.01, data_scale=0.01,
                                 seed=seed)
            for name, sql in module.QUERIES.items():
                spec = bind(sql, db, name=name)
                plan = Planner(db).plan(spec)
                engine_rows = execute_operators(
                    plan, db).payload.row_tuples()
                if sorted(engine_rows) != sorted(execute_reference(spec, db)):
                    diverged.append("{}:{}".format(module.__name__, name))
                checked += 1
        return {"queries": checked, "diverged": diverged,
                "identical": not diverged}
    finally:
        kernels.set_block_rows(None)


# ---------------------------------------------------------------------------


def main() -> int:
    jobs = _default_jobs()
    print("kernel benchmark: jobs={}, cpus={}{}".format(
        jobs, os.cpu_count(), ", REPRO_FAST" if FAST else ""))
    plan_cache.enable(False)  # every run must re-execute
    try:
        report = {
            "benchmark": "kernel_acceleration",
            "cpu_count": os.cpu_count(),
            "jobs": jobs,
            "fast_mode": FAST,
            "micro": {},
            "end_to_end": {},
        }

        kernels.enable(True)
        report["micro"]["join_repeated"] = bench_join_repeated()
        print("join repeated:   {speedup:.2f}x cached vs cold "
              "(target {target}x)".format(**report["micro"]["join_repeated"]))
        report["micro"]["zone_map_scan"] = bench_zone_map_scan()
        print("zone-map scan:   {speedup:.2f}x pruned vs full".format(
            **report["micro"]["zone_map_scan"]))

        ssb_db = ssb.generate(scale_factor=1.0,
                              data_scale=SIZES["ssb_data_scale"], seed=42)
        report["micro"]["selection_chain"] = bench_selection_chain(ssb_db)
        print("selection chain: {speedup:.2f}x masked vs gather".format(
            **report["micro"]["selection_chain"]))

        ssb_specs = _bind_all(ssb_db, ssb.QUERIES)
        report["end_to_end"]["ssb"] = bench_end_to_end(
            "ssb", ssb_db, ssb_specs)
        print("ssb batch:       {speedup:.2f}x kernels on vs off "
              "(target {target}x)".format(**report["end_to_end"]["ssb"]))

        tpch_db = tpch.generate(scale_factor=1.0,
                                data_scale=SIZES["tpch_data_scale"], seed=43)
        report["end_to_end"]["tpch"] = bench_end_to_end(
            "tpch", tpch_db, _bind_all(tpch_db, tpch.QUERIES))
        print("tpch batch:      {speedup:.2f}x kernels on vs off".format(
            **report["end_to_end"]["tpch"]))

        report["end_to_end"]["parallel_ssb"] = bench_parallel(ssb_db, jobs)
        print("parallel ssb:    {speedup:.2f}x morsel pool (jobs={jobs}, "
              "target {target}x)".format(
                  **report["end_to_end"]["parallel_ssb"]))

        report["reference_check"] = check_reference()
        print("reference check: {queries} queries, identical={identical}"
              .format(**report["reference_check"]))
        report["kernel_stats"] = kernels.snapshot_stats()
    finally:
        plan_cache.enable(True)
        kernels.enable(True)
        kernels.set_block_rows(None)
        kernels.invalidate()

    checks = [
        report["micro"]["join_repeated"]["identical"],
        report["micro"]["zone_map_scan"]["identical"],
        report["micro"]["selection_chain"]["identical"],
        report["end_to_end"]["ssb"]["identical"],
        report["end_to_end"]["tpch"]["identical"],
        report["end_to_end"]["parallel_ssb"]["identical"],
        report["reference_check"]["identical"],
    ]
    report["all_identical"] = all(checks)

    with open(OUTPUT, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote {}".format(os.path.normpath(OUTPUT)))
    return 0 if report["all_identical"] else 1


def test_kernels_match_reference_and_seed_paths():
    """Pytest entry point: every kernel fast path is byte-identical to
    the seed paths and the reference evaluator; the report is written."""
    assert main() == 0


if __name__ == "__main__":
    sys.exit(main())
