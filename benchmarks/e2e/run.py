"""End-to-end wall-clock benchmark with per-layer attribution.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]

Runs the pinned workloads of ``workloads.py`` in *units* — one workload,
once, in a fresh process (``unit.py``) — one unit per ``UNIT_SECONDS``
of ``--seconds``, round robin across the workloads so machine drift
hits them alike.  The units of a run repeat the same work; a host time
is the fastest of its repeats, stated in seconds of a reference machine
(the run's own reading of a fixed loop says how fast this one was).  It checks every output, prints every metric by name
with its unit, and ends with one JSON object per workload (the contract
line of ``BENCHMARK.json``).

Two clocks, never mixed: *host* metrics are wall/CPU seconds of our
Python and are noisy; *simulated* metrics and *counts* are deterministic
and must repeat bit for bit.  ``--trace 0`` reports the end-to-end
metrics from untraced units.  ``--trace 1`` runs one untraced and one
``cProfile``-traced unit per workload and reports the per-layer metrics;
the ratio of the two is the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if __package__ in (None, ""):
    # run as a script: make ``benchmarks.e2e`` importable like ``-m`` does
    sys.path.insert(0, ROOT)

from benchmarks.e2e import layers  # noqa: E402

#: metrics measured on the host clock that live in ``per_layer`` because
#: they are 0 on some workload; ``compare.py`` still holds them to these
#: bounds.  Every other host per-layer metric is informational.
EXTRA_BOUNDS = {"query_ms_p50": 0.10, "query_ms_p95": 0.20}

#: Nominal seconds of one unit's timed region: ``--seconds`` buys
#: ``seconds // UNIT_SECONDS`` units, fixed before anything is measured
#: so that every run of a commit attempts the same operations.
UNIT_SECONDS = 4

#: Milliseconds the reference loop (``unit.calib_ms``) takes on the
#: machine whose seconds the host times are stated in.  The shared host
#: this runs on changes speed by 10-35 % for minutes at a time; dividing
#: by the loop's own time in the same run takes that out.
NOMINAL_REFERENCE_MS = 20.0

#: below this share of profiled time in named layers the traced shares
#: say little about the program
MIN_COVERAGE = 0.95

#: metrics on the host clock: the four of ``end_to_end`` and the
#: per-layer ones that are neither simulated values nor counts
HOST_METRICS = frozenset((
    "setup_s", "queries_per_s", "cpu_s_per_kquery", "peak_rss_mb",
    "query_ms_p50", "query_ms_p95", "sim.host_us_per_event",
    "engine.execution.host_us_per_operator",
    "core.placement.host_us_per_prepare", "engine.reference.rows_per_s",
    "storage.shm_export_ms", "harness.pool_start_ms",
    "harness.phase_plan_s", "harness.phase_des_s", "harness.phase_numpy_s",
    "harness.phase_validate_s", "harness.phase_mutate_s",
    "trace.overhead_x", "trace.coverage", "host.calib_ms",
))


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def clock_of(name: str) -> str:
    """``host`` (noisy) or ``exact`` (simulated value or count)."""
    if name in HOST_METRICS or name.endswith((".self_s", ".share")):
        return "host"
    return "exact"


def run_unit(workload: str, seed: int, scale: float, trace: bool,
             oracle: bool) -> dict:
    """One unit in a fresh process; returns the object it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one numpy thread: the only extra processes are pool_batch's workers
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        env[variable] = "1"
    if trace:
        # The iteration order of a few sets of column names follows str
        # hashing, and with it two layers' call counts on figures_grid
        # (never a result or a simulated value).  The traced unit is
        # already not what a user runs, so it alone pins the hash seed
        # and every exact counter repeats.
        env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.unit", workload,
         "--seed", str(seed), "--scale", repr(scale),
         "--trace", str(int(trace)), "--oracle", str(int(oracle))],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError("unit {} exited with code {}".format(
            workload, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(int(fraction * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[rank]


def summarise(values: List[float]) -> dict:
    """Median and quartiles of one metric's per-unit values."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def steady_seconds(units: List[dict], clock: int) -> float:
    """Seconds one unit's timed region takes on ``clock`` (1 wall, 2
    CPU) when nothing disturbs it.  A slice key names the same piece of
    work in every unit of the run, and whatever else the shared host
    runs only ever adds time to it, so every piece counts with the
    fastest of all its timings in the run (as ``timeit`` advises)."""
    timings: Dict[str, List[float]] = {}
    for unit in units:
        for entry in unit["slices"]:
            timings.setdefault(entry[0], []).append(entry[clock])
    return sum(min(values) * len(values) / len(units)
               for values in timings.values())


def reference_ms(units: List[dict]) -> float:
    """The fastest reading of the reference loop in the run: how fast
    the machine was while the run's fastest repeats were taken."""
    return min(ms for unit in units for ms in unit["canary_ms"])


def end_to_end(units: List[dict]) -> Dict[str, dict]:
    """The nine end-to-end metrics from the untraced units of one
    workload.  A host time is the fastest of its repeats in the run, in
    *reference seconds* — seconds of a machine on which the reference
    loop takes ``NOMINAL_REFERENCE_MS`` — with the value in this
    machine's own seconds (``raw``) and the quartiles of the per-unit
    values beside it.  Latencies are pooled and raw, memory is the
    median; simulated values and counts are exact."""
    pooled = sorted(ms for unit in units for ms in unit["latencies_ms"])
    attempted = sum(unit["ops"] for unit in units)
    failed = sum(len(unit["failures"]) for unit in units)
    ops = max(units[0]["ops"], 1)
    machine_ms = reference_ms(units)
    scale = NOMINAL_REFERENCE_MS / machine_ms

    def seconds(fastest: float, per_unit: List[float],
                shown=lambda s: s) -> dict:
        """A time metric from its fastest repeat and per-unit values."""
        entry = summarise([shown(value * scale) for value in per_unit])
        entry["value"] = shown(fastest * scale)
        entry["raw"] = shown(fastest)
        return entry

    metrics = {
        "setup_s": seconds(min(unit["setup_s"] for unit in units),
                           [unit["setup_s"] for unit in units]),
        "queries_per_s": seconds(
            steady_seconds(units, 1), [unit["wall_s"] for unit in units],
            lambda s: ops / s),
        "cpu_s_per_kquery": seconds(
            steady_seconds(units, 2), [unit["cpu_s"] for unit in units],
            lambda s: 1e3 * s / ops),
        "peak_rss_mb": summarise([unit["peak_rss_mb"] for unit in units]),
        # a host latency per query exists only where one call is one
        # query; the DES workloads interleave queries in one event loop
        "query_ms_p50": {"value": percentile(pooled, 0.50),
                         "n": len(pooled)},
        "query_ms_p95": {"value": percentile(pooled, 0.95),
                         "n": len(pooled)},
        "sim_s": {"value": units[0]["sim_s"], "n": len(units)},
        "failed_frac": {"value": failed / max(attempted, 1),
                        "n": attempted},
        "sim_drift": {"value": len(drift_lines(units)),
                      "n": sum(unit["pinned_checks"] for unit in units)},
        "host.calib_ms": {
            "value": machine_ms,
            "n": sum(len(unit["canary_ms"]) for unit in units)},
    }
    return metrics


def drift_lines(units: List[dict]) -> List[str]:
    """Every simulated statistic that moved: each unit's differences
    from ``pinned.json``, plus the units' differences from each other —
    same seed, same inputs, so the simulation must repeat whether or not
    a profiler watches it."""
    lines = [line for unit in units for line in unit["drift"]]
    for key in ("sim_s", "ops", "stats"):
        if any(unit[key] != units[0][key] for unit in units):
            lines.append("units of one run disagree on {}".format(key))
    return lines


def per_layer(untraced: dict, traced: dict) -> Dict[str, dict]:
    """The per-layer metrics from one untraced and one traced unit."""
    values: Dict[str, float] = {}
    fold = traced["trace"]
    total = fold["total_s"]
    for layer in layers.LAYERS:
        entry = fold["layers"][layer]
        values[layer + ".self_s"] = entry["self_s"]
        values[layer + ".share"] = entry["self_s"] / total if total else 0.0
        values[layer + ".calls"] = entry["calls"]
    counts = traced["profile_counters"]
    values.update(counts)
    values.update(untraced["counters"])
    values.update(untraced["setup_ms"])
    wall_us = untraced["wall_s"] * 1e6

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values["sim.host_us_per_event"] = ratio(wall_us, counts["sim.events"])
    values["engine.execution.host_us_per_operator"] = ratio(
        wall_us, counts["engine.execution.operators"])
    values["core.placement.host_us_per_prepare"] = ratio(
        traced["prepare_cum_s"] * 1e6,
        counts["core.placement.prepare_calls"])
    # rows the oracle scanned per host second: fact-table rows at the
    # first epoch x oracle calls / the untraced validate phase
    values["engine.reference.rows_per_s"] = ratio(
        counts["engine.reference.oracle_calls"]
        * untraced["counters"].get("fact_rows", 0),
        untraced["counters"].get("harness.phase_validate_s", 0.0))
    values["trace.overhead_x"] = ratio(traced["wall_s"], untraced["wall_s"])
    values["trace.coverage"] = fold["coverage"]
    values.update({
        name: entry["value"]
        for name, entry in end_to_end([untraced, traced]).items()
        if name in ("sim_s", "failed_frac", "sim_drift")
    })
    values.update({
        name: entry["value"]
        for name, entry in end_to_end([untraced]).items()
        if name in ("query_ms_p50", "query_ms_p95", "host.calib_ms")
    })
    return {name: {"value": value, "n": 1} for name, value in values.items()}


def run_workloads(names: List[str], seed: int = 0, units_each: int = 3,
                  trace: bool = False, scale: float = 1.0) -> Dict[str, dict]:
    """Run ``units_each`` untraced units of every named workload, round
    robin (``trace``: one untraced and one traced unit instead);
    ``{workload: result}`` with ``metrics`` (name -> value/unit/...),
    ``attempted``, ``failed``, ``correct``, ``failures``, ``drift`` and
    the raw ``units``."""
    contract = load_contract()
    #: name -> unit, better, clock and (host metrics held to one) bound
    catalog = {}
    for section in ("end_to_end", "per_layer"):
        for entry in contract[section]:
            entry = dict(entry, clock=clock_of(entry["name"]))
            if entry["name"] in EXTRA_BOUNDS:
                entry["bound"] = EXTRA_BOUNDS[entry["name"]]
            catalog[entry.pop("name")] = entry
    declared = [entry["name"] for entry in
                contract["per_layer" if trace else "end_to_end"]]
    # a metric the workload does not have reads 0 with n=0
    absent = {"value": 0, "n": 0}
    units: Dict[str, List[dict]] = {name: [] for name in names}
    if trace:
        for traced in (False, True):
            for name in names:
                units[name].append(
                    run_unit(name, seed, scale, traced, not traced))
    else:
        for index in range(units_each):
            for name in names:
                # the expensive oracle pass once per run
                units[name].append(
                    run_unit(name, seed, scale, False, index == 0))
    results = {}
    for name in names:
        measured = (per_layer(*units[name]) if trace
                    else end_to_end(units[name]))
        metrics = {metric: dict(catalog[metric],
                                **measured.get(metric, absent))
                   for metric in declared}
        failures = [line for unit in units[name]
                    for line in unit["failures"]]
        drift = drift_lines(units[name])
        results[name] = {
            "metrics": metrics,
            # measured but not in this mode's section of the contract
            "also": {metric: dict(catalog[metric], **entry)
                     for metric, entry in measured.items()
                     if metric not in metrics and metric in catalog},
            "attempted": sum(unit["ops"] for unit in units[name]),
            "failed": len(failures),
            "correct": not failures and not drift,
            "failures": failures, "drift": drift,
            "stats": units[name][0]["stats"],
            "units": units[name],
        }
    return results


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    })


def print_report(results: Dict[str, dict], seed: int) -> None:
    for name, result in results.items():
        print("== {} (seed {}): {} operations, {} failed, {} drifted"
              .format(name, seed, result["attempted"], result["failed"],
                      len(result["drift"])))
        rows = dict(result["metrics"], **result["also"])
        for metric, entry in rows.items():
            spread = ""
            if "q1" in entry:
                spread = "  [q1 {:.6g}, q3 {:.6g}]".format(
                    entry["q1"], entry["q3"])
            if "raw" in entry:
                spread += "  raw {:.6g}".format(entry["raw"])
            unit = entry.get("unit", "")
            print("  {:42s} {:>14.6g} {:6s} n={}{}".format(
                metric, entry["value"], unit, entry["n"], spread))
        if seed != 0:
            print("  (pinned statistics apply to seed 0: sim_drift only "
                  "checks that units repeat)")
        for line in result["failures"]:
            print("  FAILED {}".format(line))
        for line in result["drift"]:
            print("  DRIFT  {}".format(line))
        coverage = rows.get("trace.coverage")
        if coverage is not None and coverage["value"] < MIN_COVERAGE:
            print("  WARNING trace.coverage < {}: most profiled time is "
                  "outside the named layers, the shares above say little "
                  "about the program".format(MIN_COVERAGE))


def write_outputs(results: Dict[str, dict], args, out: str) -> None:
    directory = os.path.dirname(os.path.abspath(out))
    os.makedirs(directory, exist_ok=True)
    if args.trace:
        for name, result in results.items():
            traced = result["units"][-1]
            path = os.path.join(directory, "trace_{}.json".format(name))
            with open(path, "w") as handle:
                json.dump({
                    "workload": name, "seed": args.seed,
                    "profiled_s": traced["trace"]["total_s"],
                    "coverage": traced["trace"]["coverage"],
                    "layers": traced["trace"]["layers"],
                    "edges": traced["trace"]["edges"],
                    "numpy_by_caller": traced["trace"]["numpy_by_caller"],
                    "top_functions": traced["trace"]["top_functions"],
                }, handle, indent=1)
    for result in results.values():
        for unit in result["units"]:
            unit.pop("trace", None)
            unit.pop("latencies_ms", None)
    with open(out, "w") as handle:
        json.dump({"seed": args.seed, "trace": args.trace,
                   "workloads": results}, handle, indent=1)


def main(argv=None) -> int:
    contract = load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all, round robin)")
    parser.add_argument("--seed", type=int, default=0,
                        help="offsets every generated input's seed; the "
                             "pinned statistics apply to seed 0")
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="nominal measured seconds per workload: one "
                             "unit per {} s, at least one".format(
                                 UNIT_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from one untraced and "
                             "one cProfile-traced unit per workload "
                             "(--seconds does not apply)")
    parser.add_argument("--out", default=None,
                        help="result file (default: benchmarks/e2e/out/)")
    args = parser.parse_args(argv)
    selected = [args.workload] if args.workload else names
    results = run_workloads(
        selected, args.seed, max(1, int(args.seconds // UNIT_SECONDS)),
        bool(args.trace))
    out = args.out or os.path.join(HERE, "out", "{}_trace{}.json".format(
        args.workload or "all", args.trace))
    print_report(results, args.seed)
    lines = [contract_line(result) for result in results.values()]
    write_outputs(results, args, out)
    for line in lines:
        print(line)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
