"""Reproduction report generator.

Runs the headline experiments and renders a markdown table comparing
each paper claim with the freshly measured value — the same structure
as EXPERIMENTS.md, regenerated from live runs so drift between code
and documentation is detectable (`python -m repro report`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.harness import experiments as E


@dataclass
class Claim:
    """One paper claim with its measurement."""

    figure: str
    claim: str
    paper_value: str
    measure: Callable[[Dict], float]
    render: str  # format string applied to the measured value
    holds: Callable[[float], bool]


@contextmanager
def _pinned_grids():
    """The claims index exact sweep points (SF 15, 20 users, ...), so
    REPRO_FAST grid clipping must not apply here; the report's own
    ``fast`` knob bounds its cost instead."""
    saved = os.environ.pop(E.FAST_ENV, None)
    try:
        yield
    finally:
        if saved is not None:
            os.environ[E.FAST_ENV] = saved


def _collect_measurements(fast: bool = True) -> Dict:
    """Run the sweeps the claims draw from (shared across claims)."""
    scale = dict(repetitions=1) if fast else dict(repetitions=2)
    data: Dict = {}

    fig01 = E.figure01(scale_factor=20, **scale)
    data["fig01"] = {row["strategy"]: row["seconds"] for row in fig01.rows}
    fig01_sf10 = E.figure01(scale_factor=10, **scale)
    data["fig01_sf10"] = {
        row["strategy"]: row["seconds"] for row in fig01_sf10.rows
    }

    fig02 = E.figure02(buffer_gib=(0.0, 2.5),
                       repetitions=4 if fast else 10)
    data["fig02"] = dict(
        fig02.series("buffer_gib", "seconds", "strategy")["gpu_only"]
    )

    sweep = E.micro_users_sweep(
        strategies=("gpu_only", "runtime", "chopping"),
        users=(4, 7, 20), total_queries=60 if fast else 100,
    )
    data["micro"] = {
        (row["strategy"], row["users"]): row for row in sweep.rows
    }

    scale_sweep = E.scale_factor_sweep(
        "ssb", scale_factors=(5, 15, 30),
        strategies=("cpu_only", "gpu_only", "data_driven_chopping"),
        repetitions=1,
    )
    data["scale"] = {
        (row["strategy"], row["scale_factor"]): row
        for row in scale_sweep.rows
    }

    fig17 = E.figure17(repetitions=1,
                       strategies=("cpu_only", "data_driven_chopping"))
    table: Dict = {}
    for row in fig17.rows:
        table.setdefault(row["query"], {})[row["strategy"]] = row["seconds"]
    data["fig17"] = table

    users = E.benchmark_users_sweep(
        "ssb", users=(1, 20),
        strategies=("gpu_only", "chopping", "data_driven_chopping"),
        repetitions=1,
    )
    data["users"] = {
        (row["strategy"], row["users"]): row for row in users.rows
    }
    return data


CLAIMS: List[Claim] = [
    Claim(
        "Fig. 1", "GPU with cold cache is slower than the CPU (SF 20)",
        "~3x slower",
        lambda d: d["fig01"]["gpu (cold cache)"] / d["fig01"]["cpu"],
        "{:.2f}x slower", lambda v: v > 1.0,
    ),
    Claim(
        "Fig. 1", "hot-cache GPU accelerates the query (SF 10)",
        "~2.5x faster",
        lambda d: d["fig01_sf10"]["cpu"] / d["fig01_sf10"]["gpu (hot cache)"],
        "{:.2f}x faster", lambda v: v > 1.5,
    ),
    Claim(
        "Fig. 2", "cache thrashing degradation",
        "factor ~24",
        lambda d: d["fig02"][0.0] / d["fig02"][2.5],
        "factor {:.1f}", lambda v: v > 10,
    ),
    Claim(
        "Fig. 3", "heap contention degrades beyond ~7 users",
        "degradation past 7 users",
        lambda d: (d["micro"][("gpu_only", 20)]["seconds"]
                   / d["micro"][("gpu_only", 4)]["seconds"]),
        "{:.2f}x at 20 users", lambda v: v > 1.4,
    ),
    Claim(
        "Fig. 13", "aborts: compile-time > run-time > chopping (=0)",
        "monotone, chopping ~0",
        lambda d: d["micro"][("chopping", 20)]["aborts"],
        "chopping aborts = {:.0f}",
        lambda v: v == 0,
    ),
    Claim(
        "Fig. 14", "GPU-only falls behind from SF 15",
        "crossover at SF 15",
        lambda d: (d["scale"][("gpu_only", 15)]["seconds"]
                   / d["scale"][("cpu_only", 15)]["seconds"]),
        "{:.2f}x slower at SF 15", lambda v: v > 1.0,
    ),
    Claim(
        "Fig. 14", "Data-Driven Chopping never worse than CPU-only",
        "robustness",
        lambda d: max(
            d["scale"][("data_driven_chopping", sf)]["seconds"]
            / d["scale"][("cpu_only", sf)]["seconds"]
            for sf in (5, 15, 30)
        ),
        "worst ratio {:.2f}", lambda v: v <= 1.15,
    ),
    Claim(
        "Fig. 17", "high-selectivity Q3.4 accelerates at SF 30",
        "up to ~2.5x",
        lambda d: (d["fig17"]["Q3.4"]["cpu_only"]
                   / d["fig17"]["Q3.4"]["data_driven_chopping"]),
        "{:.2f}x", lambda v: v > 1.5,
    ),
    Claim(
        "Fig. 19", "Data-Driven Chopping slashes CPU->GPU IO at 20 users",
        "factor 48",
        lambda d: min(
            d["users"][("gpu_only", 20)]["h2d_seconds"]
            / max(d["users"][("data_driven_chopping", 20)]["h2d_seconds"],
                  1e-9),
            9999.0,  # a zero denominator means "all IO eliminated"
        ),
        "factor {:.0f}+", lambda v: v > 10,
    ),
    Claim(
        "Fig. 20", "Chopping removes nearly all wasted time at 20 users",
        "factor up to 74",
        lambda d: min(
            d["users"][("gpu_only", 20)]["wasted_seconds"]
            / max(d["users"][("chopping", 20)]["wasted_seconds"], 1e-9),
            9999.0,
        ),
        "factor {:.0f}+", lambda v: v > 5,
    ),
]


def fault_attribution_section(fault_rate: float = 0.05,
                              scale_factor: float = 5,
                              seed: int = 7) -> List[str]:
    """Markdown lines attributing faults to the queries they hit.

    Runs one SSB workload under uniform fault injection (validated
    against the reference evaluator) and renders the per-query
    abort/wasted/retry accounting from
    :meth:`MetricsCollector.per_query_fault_report`.
    """
    from repro.faults import FaultConfig
    from repro.harness.runner import run_workload
    from repro.workloads import ssb

    database = E.ssb_database(scale_factor)
    run = run_workload(
        database, ssb.workload(database), "runtime",
        config=E.FULL_CONFIG, users=2,
        faults=FaultConfig.uniform(fault_rate, seed=seed),
        validate=True,
    )
    lines = [
        "## Fault attribution (rate {:g}, seed {}, results validated)"
        .format(fault_rate, seed),
        "",
        "| Query | Executions | Aborts | Wasted s | Retries |",
        "|-------|------------|--------|----------|---------|",
    ]
    for name, row in sorted(run.metrics.per_query_fault_report().items()):
        lines.append("| {} | {:.0f} | {:.0f} | {:.4f} | {:.0f} |".format(
            name, row["executions"], row["aborts"],
            row["wasted_seconds"], row["retries"],
        ))
    lines.append("")
    lines.append(
        "{} faults injected; every query result matched the fault-free "
        "reference.".format(run.faults_injected)
    )
    return lines


def bus_accounting_section(scale_factor: float = 5,
                           users: int = 4) -> List[str]:
    """Markdown lines for the PCIe bus accounting and copy engine.

    Runs one cold-cache SSB workload twice — serialized bus vs.
    asynchronous copy engine — and renders the wire/queueing split
    introduced with the engine: wire seconds, queueing delay, bus
    utilization, transfer/compute overlap ratio, and the coalesce and
    prefetch-hit counters.  Utilization above 1.0 simply means the
    duplex channels moved more wire-seconds than one serialized bus
    could have in the same makespan.
    """
    from repro.harness.runner import run_workload
    from repro.workloads import ssb

    database = E.ssb_database(scale_factor)
    queries = ssb.workload(database)
    rows = []
    for label, engine in (("serialized bus", False), ("copy engine", True)):
        run = run_workload(
            database, queries, "runtime",
            config=E.FULL_CONFIG.with_copy_engine(engine),
            users=users, warm_cache=False,
        )
        m = run.metrics
        rows.append((label, run.seconds, m.transfer_seconds,
                     m.transfer_queue_seconds, m.bus_utilization,
                     m.overlap_ratio, m.coalesced_transfers,
                     m.prefetch_hits))
    lines = [
        "## PCIe accounting (SSB SF {:g}, {} users, cold cache)".format(
            scale_factor, users
        ),
        "",
        "| Mode | Makespan s | Wire s | Queueing s | Utilization "
        "| Overlap | Coalesced | Prefetch hits |",
        "|------|------------|--------|------------|-------------"
        "|---------|-----------|---------------|",
    ]
    for (label, seconds, wire, queue, util, overlap, coal, hits) in rows:
        lines.append(
            "| {} | {:.4f} | {:.4f} | {:.4f} | {:.2f} | {:.2f} "
            "| {:.0f} | {:.0f} |".format(
                label, seconds, wire, queue, util, overlap, coal, hits
            )
        )
    lines.append("")
    lines.append(
        "Transfer counters report pure wire time; channel queueing is "
        "the separate column above (it used to be folded into the copy "
        "time)."
    )
    return lines


def morsel_section(scale_factor: float = 5) -> List[str]:
    """Markdown lines for the fused functional execution counters.

    Runs one warm-cache SSB workload from an empty plan cache and
    renders what its warm-up moved in :data:`repro.engine.morsel.stats`:
    queries fused, operators folded into pipelines, morsels executed,
    and declines (plans that ran operator by operator instead).
    """
    from repro.engine import morsel, plan_cache
    from repro.harness.runner import run_workload
    from repro.workloads import ssb

    database = E.ssb_database(scale_factor)
    # fresh plans and an empty plan cache: results memoised by an
    # earlier section would make the warm-up skip fusion
    plan_cache.invalidate(database)
    before = morsel.snapshot_stats()
    run_workload(database, ssb.workload(database), "runtime",
                 config=E.FULL_CONFIG, users=1)
    moved = morsel.stats_since(before)
    return [
        "## Fused functional execution (SSB SF {:g}, single user)".format(
            scale_factor
        ),
        "",
        "| Fused queries | Fused operators | Chain | Morsels "
        "| Dense aggregates | Declined |",
        "|---------------|-----------------|-------|---------"
        "|------------------|----------|",
        "| {} | {} | {:.1f} | {} | {} | {} |".format(
            moved["fused_queries"],
            moved["fused_operators"],
            moved["fused_operators"] / max(moved["fused_queries"], 1),
            moved["morsels"],
            moved["dense_aggregates"],
            moved["declined_queries"],
        ),
        "",
        "Fused pipelines execute scan, join-probe, and aggregate "
        "operators per morsel and record every operator's result for "
        "the simulator; results stay byte-identical to the operator "
        "path (benchmarks/bench_morsels.py gates the speedup).",
    ]


def procfault_section(scale_factor: float = 1) -> List[str]:
    """Markdown lines for the self-healing pool under process chaos.

    Runs the SSB workload through a :class:`MorselPool` with a seeded
    process-fault schedule (worker crashes, hangs, slow exits, and a
    shm unlink race) and renders the recovery accounting: byte
    identity against the sequential engine, restarts, requeues, and
    the deterministic schedule digest.  Skipped (with a note) on
    platforms without fork or shared memory.
    """
    import multiprocessing

    from repro.engine.execution import execute_operators
    from repro.faults import FaultConfig
    from repro.harness.parallel import MorselPool
    from repro.storage import shm
    from repro.workloads import ssb

    lines = ["## Process faults and the self-healing pool"]
    if not (shm.available()
            and "fork" in multiprocessing.get_all_start_methods()):
        lines.extend(["", "(skipped: needs fork and shared memory)"])
        return lines
    database = E.ssb_database(scale_factor)
    queries = ssb.workload(database)
    reference = {
        query.name: execute_operators(
            query.instantiate(), database).payload.row_tuples()
        for query in queries
    }
    faults = FaultConfig(crash=0.15, hang=0.08, slowexit=0.05,
                         unlinkrace=0.05, hang_seconds=5.0, seed=2)
    with MorselPool(database, queries, jobs=2, faults=faults,
                    heartbeat_seconds=0.4) as pool:
        pool.warm()
        results = pool.run_queries()
        identical = all(
            results[name].payload.row_tuples() == reference[name]
            for name in reference
        )
        summary = pool.process_fault_summary()
        lines.extend([
            "",
            "| Planned faults | Identical | Restarts | Requeues "
            "| Quarantines | Fallbacks | Leaked |",
            "|----------------|-----------|----------|----------"
            "|-------------|-----------|--------|",
            "| {} | {} | {} | {} | {} | {} | {} |".format(
                ", ".join("{}={}".format(k, v)
                          for k, v in sorted(summary.items())) or "none",
                "yes" if identical else "NO",
                pool.counters["worker_restarts"],
                pool.counters["chunk_requeues"],
                pool.counters["chunk_quarantines"],
                pool.fallbacks,
                len(shm.leaked_segments()),
            ),
            "",
            "Schedule digest (seed {}): `{}`".format(
                faults.seed, pool.process_fault_digest),
            "",
            "Killed, hung, and unlink-raced workers are respawned "
            "against the checksummed shared-memory export and their "
            "chunks re-queued; results stay byte-identical "
            "(benchmarks/bench_procfaults.py gates the chaos soak).",
        ])
    return lines


def service_section(scale_factor: float = 0.05) -> List[str]:
    """Markdown lines for steady-state service mode: streaming
    multi-tenant traffic at sustained overload with chaos and
    concurrent append epochs, rendered as the per-class SLO ledger."""
    from repro.harness.service import ServiceConfig, run_service
    from repro.workloads import ssb

    database = ssb.generate(scale_factor, data_scale=0.01)
    service = ServiceConfig(
        duration_seconds=6.0, arrivals="diurnal", rate=600.0,
        tenants_per_class=2, max_inflight=2, deadline_seconds=0.02,
        latency_target_seconds=0.01, hedge_factor=3.0,
        mutation_interval_seconds=2.0, seed=11,
    )
    result = run_service(
        database, workload="ssb", strategy="critical_path",
        service=service, faults="pcie=0.02,heap=0.02,kernel=0.02,seed=7",
    )
    lines = [
        "## Service mode: open-system multi-tenant steady state",
        "",
        "{} arrivals over {:.0f}s simulated (diurnal, {:g}/s mean), "
        "{} append epochs, {} faults injected; conservation {}, "
        "byte-identical {}.".format(
            result.arrivals, service.duration_seconds, service.rate,
            result.epochs, result.faults_injected,
            "holds" if result.conserved() else "VIOLATED",
            "yes" if result.identical else "NO"),
        "",
        "| Class | Arrivals | Completed | Shed | Degraded | Cancelled "
        "| p99 | Target | Attainment |",
        "|-------|----------|-----------|------|----------|-----------"
        "|-----|--------|------------|",
    ]
    for cls in ("premium", "standard", "best_effort"):
        row = result.ledger.get(cls)
        if row is None:
            continue
        lines.append(
            "| {} | {:.0f} | {:.0f} | {:.0f} | {:.0f} | {:.0f} "
            "| {:.4f}s | {:.3f}s | {:.1%} |".format(
                cls, row["arrivals"], row["completed"], row["shed"],
                row["degraded"], row["cancelled"], row["p99"],
                row.get("target", 0.0), row.get("attainment", 0.0)))
    lines.extend([
        "",
        "Fair-share admission sheds best-effort traffic first while "
        "premium queries ride a 4x deadline multiplier and an early "
        "GPU-degradation threshold; every completed query is checked "
        "against the reference engine over its pinned append epoch "
        "(benchmarks/bench_service.py gates the soak).",
    ])
    return lines


def generate_report(fast: bool = True) -> str:
    """Run the headline experiments and render the markdown report."""
    with _pinned_grids():
        data = _collect_measurements(fast=fast)
        fault_lines = fault_attribution_section()
        bus_lines = bus_accounting_section()
        morsel_lines = morsel_section()
        procfault_lines = procfault_section()
        service_lines = service_section()
    lines = [
        "# Reproduction report (regenerated)",
        "",
        "| Figure | Claim | Paper | Measured | Holds |",
        "|--------|-------|-------|----------|-------|",
    ]
    failures = 0
    for claim in CLAIMS:
        value = claim.measure(data)
        holds = claim.holds(value)
        failures += 0 if holds else 1
        lines.append("| {} | {} | {} | {} | {} |".format(
            claim.figure, claim.claim, claim.paper_value,
            claim.render.format(value), "yes" if holds else "NO",
        ))
    lines.append("")
    lines.append("{} of {} claims hold.".format(
        len(CLAIMS) - failures, len(CLAIMS)
    ))
    lines.append("")
    lines.extend(fault_lines)
    lines.append("")
    lines.extend(bus_lines)
    lines.append("")
    lines.extend(morsel_lines)
    lines.append("")
    lines.extend(procfault_lines)
    lines.append("")
    lines.extend(service_lines)
    return "\n".join(lines)
