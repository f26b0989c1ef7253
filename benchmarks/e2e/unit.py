"""One unit: one workload, once, in this (fresh) process.

``run.py`` starts ``python -m benchmarks.e2e.unit <workload> ...`` for
every unit and reads the JSON object this module prints as its last
line.  A fresh process per unit gives every unit the cold module-global
plan/kernel/morsel caches a user's command starts with, its own peak
RSS, and one more sample of the set-up time.

Host clock only around ``Workload.run()``; with ``--trace 1`` that call
(and nothing else) runs under ``cProfile``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
from heapq import heappop, heappush
from time import perf_counter

#: profile call counts that are exact counters of the program's work:
#: metric -> ((path relative to src/repro, function), ...)
PROFILE_COUNTERS = {
    "sim.events": (("sim/environment.py", "schedule"),),
    "sim.resumes": (("sim/events.py", "_resume"),),
    "engine.execution.operators":
        (("metrics/collector.py", "record_operator"),),
    "engine.execution.aborts": (("metrics/collector.py", "record_abort"),),
    "engine.execution.retries": (("metrics/collector.py", "record_retry"),),
    "engine.execution.cancelled":
        (("metrics/collector.py", "record_cancelled_query"),),
    "hardware.transfers": (("metrics/collector.py", "record_transfer"),),
    "core.placement.prepare_calls": (("core/placement/", "prepare_plan"),),
    "engine.reference.oracle_calls":
        (("engine/reference.py", "execute_reference"),),
}
_RECORD_QUERY = (("metrics/collector.py", "record_query"),)


#: readings of the reference loop before, and again after, the timed
#: region of every unit
CANARY_READS = 5


def calib_ms() -> float:
    """Milliseconds a fixed pure-Python loop (heap, dict, tuples) takes
    on this machine right now: the reference ``run.py`` states the
    machine's speed with (the fastest reading of a whole run)."""
    heap: list = []
    table: dict = {}
    start = perf_counter()
    for value in range(40_000):
        key = (value * 7919) & 1023
        heappush(heap, (key, value))
        table[key] = table.get(key, 0) + 1
        if value & 3 == 3:
            heappop(heap)
    return (perf_counter() - start) * 1e3


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, MiB
    (Linux reports ``ru_maxrss`` in KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def compare_pinned(stats: dict, pinned: dict):
    """``(checked, drift, failures)``: how many pinned statistics were
    compared and which differ.  Result digests are outputs, so a
    differing one is a failed operation; every other pinned value is a
    simulated statistic, so it is drift."""
    checked, drift, failures = 0, [], []
    for key, want in pinned.items():
        if key.startswith("queries"):
            continue  # queries per table row of a figure, an input to ops
        got = stats.get(key)
        checked += len(want) if isinstance(want, dict) else 1
        if isinstance(want, dict):
            got = got if isinstance(got, dict) else {}
            failures.extend(
                "{}[{}]: {} != pinned {}".format(key, name, got.get(name),
                                                 value)
                for name, value in want.items() if got.get(name) != value)
        elif isinstance(want, float):
            if got is None or not math.isclose(got, want, rel_tol=1e-9):
                drift.append("{}: {!r} != pinned {!r}".format(
                    key, got, want))
        elif got != want:
            drift.append("{}: {!r} != pinned {!r}".format(key, got, want))
    return checked, drift, failures


def measure(name: str, seed: int, scale: float, trace: bool,
            oracle: bool) -> dict:
    start = perf_counter()
    # Imported here, not at the top: importing the program (numpy,
    # repro) is part of the set-up time a user pays.
    from benchmarks.e2e import layers
    from benchmarks.e2e.workloads import WORKLOADS, cpu_seconds

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "pinned.json")) as handle:
        pinned = json.load(handle).get(name, {})
    workload = WORKLOADS[name](seed, scale, pinned, trace)
    workload.setup()
    setup_s = perf_counter() - start

    profile = None
    if trace:
        import cProfile
        profile = cProfile.Profile()
    canary = [calib_ms() for _ in range(CANARY_READS)]
    workload.start_counters()
    cpu_start = cpu_seconds()
    wall_start = perf_counter()
    if profile is not None:
        profile.enable()
    try:
        workload.run()
    finally:
        if profile is not None:
            profile.disable()
    wall_s = perf_counter() - wall_start
    cpu_s = cpu_seconds() - cpu_start
    canary += [calib_ms() for _ in range(CANARY_READS)]
    workload.finish_counters()
    workload.close()
    # read before check() so the oracle's footprint is not charged
    rss_mb = peak_rss_mb()
    workload.check(oracle)

    drift, failures = [], list(workload.failures)
    pinned_checks = 0
    if seed == 0 and scale == 1.0:
        pinned_checks, drift, pinned_failures = compare_pinned(
            workload.stats, pinned)
        failures.extend(pinned_failures)
    unit = {
        "workload": name, "seed": seed, "scale": scale, "traced": trace,
        "canary_ms": canary, "setup_s": setup_s, "wall_s": wall_s,
        "cpu_s": cpu_s, "peak_rss_mb": rss_mb, "ops": workload.ops,
        "sim_s": workload.sim_s, "slices": workload.slices,
        "slice_ops": workload.slice_ops,
        "latencies_ms": workload.latencies_ms,
        "setup_ms": workload.setup_ms, "counters": workload.counters,
        "stats": workload.stats, "pinned_checks": pinned_checks,
    }
    if profile is not None:
        profile.create_stats()
        stats = profile.stats
        unit["trace"] = layers.fold(stats)
        unit["profile_counters"] = {
            metric: layers.call_count(stats, targets)
            for metric, targets in PROFILE_COUNTERS.items()
        }
        unit["prepare_cum_s"] = layers.cumulative_seconds(
            stats, PROFILE_COUNTERS["core.placement.prepare_calls"])
        recorded = layers.call_count(stats, _RECORD_QUERY)
        if recorded and recorded != workload.ops:
            # the DES workloads complete one query per record_query
            drift.append("operations: {} counted, {} in the profile"
                         .format(workload.ops, recorded))
    unit["drift"] = drift
    unit["failures"] = failures
    return unit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    unit = measure(args.workload, args.seed, args.scale, bool(args.trace),
                   bool(args.oracle))
    sys.stdout.flush()
    print(json.dumps(unit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
