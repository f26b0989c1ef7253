"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``figures [figNN ...] [--fast] [--jobs N]``
    Regenerate (all or selected) figures of the paper and print the
    series each one plots; ``--jobs N`` fans each figure's grid over N
    worker processes (tables are identical for any N).
``run --benchmark ssb --strategy data_driven_chopping ...``
    Run a full benchmark workload under one placement strategy and
    print the measurement summary.
``query "<sql>" --benchmark ssb ...``
    Execute ad-hoc SQL against a generated benchmark database.
``pool [--faults crash=0.1,...] [--jobs N]``
    Chaos-soak the self-healing shared-memory morsel pool and report
    byte identity, recovery counters, and the fault-schedule digest.
``serve [--rate R --duration S --arrivals diurnal ...]``
    Run the simulated machine as a long-lived multi-tenant service:
    streaming arrivals over SLO classes, fair-share admission,
    concurrent append epochs, optional chaos — and print the
    per-class SLO ledger.
``strategies``
    List the available placement strategies.
``compress --benchmark ssb``
    Show the per-column compression report for a generated database.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from repro.core import STRATEGY_NAMES
from repro.engine import kernels, morsel
from repro.engine.execution.lifecycle import OVERLOAD_POLICIES
from repro.harness.figures import FIGURES
from repro.harness.parallel import resolve_jobs
from repro.harness.runner import run_workload
from repro.hardware import SystemConfig
from repro.hardware.calibration import GIB
from repro.workloads import BENCHMARKS, sql_workload

#: figure id -> (driver, full-size kwargs, --fast kwargs): the view of
#: :data:`repro.harness.figures.FIGURES` that ``benchmarks/e2e`` reads
FIGURE_DRIVERS = {figure.id: (figure.run, {}, {"fast": True})
                  for figure in FIGURES.values()}


def _database(benchmark: str, scale_factor: float, data_scale: float):
    return BENCHMARKS[benchmark].generate(scale_factor, data_scale=data_scale)


def cmd_figures(args) -> int:
    figures = args.figures or list(FIGURES)
    for figure_id in figures:
        if figure_id not in FIGURES:
            print("unknown figure {!r}; choose from: {}".format(
                figure_id, ", ".join(FIGURES)))
            return 1
    start = time.time()
    for figure_id in figures:
        print("=" * 72)
        FIGURES[figure_id].run(fast=args.fast, jobs=args.jobs).print()
    print("done in {:.1f}s".format(time.time() - start))
    return 0


def _resolve_faults(args):
    """--faults beats $REPRO_FAULTS; empty/absent means no injection."""
    from repro.faults import FaultConfig

    if getattr(args, "faults", None):
        return FaultConfig.parse(args.faults)
    return FaultConfig.from_env()


def _resolve_lifecycle(args):
    """Build a LifecycleConfig from the run flags (None = layer off)."""
    from repro.engine.execution import LifecycleConfig

    config = LifecycleConfig(
        max_inflight=args.max_inflight,
        overload_policy=args.overload_policy,
        deadline_seconds=args.deadline,
    )
    return config if config.enabled else None


def cmd_run(args) -> int:
    config_kwargs = dict(
        gpu_count=args.gpus,
        gpu_memory_bytes=int(args.gpu_memory_gib * GIB),
        gpu_cache_bytes=int(args.gpu_cache_gib * GIB),
        copy_engine=args.copy_engine,
        split=args.split or args.split_ratio is not None or args.coupled,
        split_ratio=args.split_ratio,
    )
    config = (SystemConfig.coupled_gpu(**config_kwargs) if args.coupled
              else SystemConfig(**config_kwargs))
    faults = _resolve_faults(args)
    lifecycle = _resolve_lifecycle(args)
    database = _database(args.benchmark, args.scale_factor, args.data_scale)
    queries = BENCHMARKS[args.benchmark].workload(database)
    fused_before = morsel.snapshot_stats()
    probes = ("compiled_probes", "numpy_probes")
    probes_before = [kernels.stats[key] for key in probes]
    run = run_workload(
        database, queries, args.strategy, config=config,
        users=args.users, repetitions=args.repetitions,
        warm_cache=not args.cold, trace=args.trace,
        faults=faults, lifecycle=lifecycle,
    )
    print("workload: {} SF {} x{} repetitions, {} users, strategy {}".format(
        args.benchmark, args.scale_factor, args.repetitions, args.users,
        args.strategy))
    for key, value in run.metrics.summary().items():
        print("  {:22s} {:.6g}".format(key, value))
    if faults is not None and faults.enabled:
        print("  fault injection (seed {}):".format(faults.seed))
        print("    injected: {} ({})".format(
            run.faults_injected,
            ", ".join("{}={}".format(k, v)
                      for k, v in sorted((run.fault_classes or {}).items()))
            or "none",
        ))
        for key, value in run.metrics.fault_summary().items():
            print("    {:20s} {:.6g}".format(key, value))
        print("    schedule digest: {}".format(run.fault_digest))
        print("    per query: executions / aborts / wasted s / retries")
        for name, row in sorted(
                run.metrics.per_query_fault_report().items()):
            print("    {:8s} {:.0f} / {:.0f} / {:.4f} / {:.0f}".format(
                name, row["executions"], row["aborts"],
                row["wasted_seconds"], row["retries"]))
    if lifecycle is not None:
        print("  query lifecycle ({}):".format(", ".join(
            part for part, on in (
                ("admission", lifecycle.admission_enabled),
                ("deadlines", lifecycle.deadlines_enabled),
            ) if on
        )))
        for key, value in run.metrics.lifecycle_summary().items():
            print("    {:22s} {:.6g}".format(key, value))
    print("  fused functional execution (warm-up):")
    for key, value in morsel.stats_since(fused_before).items():
        if value:
            print("    {:22s} {}".format(key, value))
    for key, before in zip(probes, probes_before):
        print("    {:22s} {}".format(key, kernels.stats[key] - before))
    if config.split:
        print("  split execution{}:".format(
            " (coupled GPU)" if config.coupled else ""))
        for key, value in run.metrics.split_summary().items():
            print("    {:26s} {:.6g}".format(key, value))
        for reason, count in sorted(
                run.metrics.by("split_declines", "reason").items()):
            print("    declined[{}]: {}".format(reason, count))
    print("  per-query mean latencies:")
    for name, latency in run.metrics.latencies_by_query().items():
        print("    {:8s} {:.4f}s".format(name, latency))
    if run.trace is not None:
        print()
        print(run.trace.timeline_text())
        print(run.trace.summary())
    return 0


def cmd_pool(args) -> int:
    """Chaos-soak the self-healing morsel pool and report identity."""
    from repro.engine.execution import execute_operators
    from repro.harness.parallel import MorselPool
    from repro.storage import shm

    if not shm.available():
        print("shared memory is not available on this platform")
        return 1
    faults = _resolve_faults(args)
    database = _database(args.benchmark, args.scale_factor, args.data_scale)
    queries = BENCHMARKS[args.benchmark].workload(database)
    reference = {
        query.name: execute_operators(
            query.instantiate(), database).payload.row_tuples()
        for query in queries
    }
    start = time.time()
    with MorselPool(database, queries, workload=args.benchmark,
                    jobs=args.jobs, faults=faults,
                    heartbeat_seconds=args.heartbeat,
                    max_restarts=args.max_restarts) as pool:
        pool.warm()
        results = pool.run_queries()
        elapsed = time.time() - start
        identical = all(
            results[name].payload.row_tuples() == reference[name]
            for name in reference
        )
        print("pool: {} x{} jobs, {} queries in {:.2f}s".format(
            args.benchmark, pool.jobs, len(queries), elapsed))
        print("  byte-identical to sequential: {}".format(identical))
        print("  fallbacks: {}  degraded: {}".format(
            pool.fallbacks, pool.degraded or "no"))
        for key in sorted(pool.counters):
            print("  {:22s} {}".format(key, pool.counters[key]))
        summary = pool.process_fault_summary()
        if summary:
            print("  process faults planned (seed {}):".format(faults.seed))
            for name, count in sorted(summary.items()):
                print("    {:20s} {}".format(name, count))
            print("    schedule digest: {}".format(
                pool.process_fault_digest))
            for query, classes in sorted(
                    pool.process_fault_report().items()):
                print("    {:8s} {}".format(query, ", ".join(
                    "{}={}".format(k, v)
                    for k, v in sorted(classes.items()))))
        if pool.orphans_reaped:
            print("  orphaned segments reaped: {}".format(
                pool.orphans_reaped))
    leaked = shm.leaked_segments()
    print("  leaked segments: {}".format(len(leaked)))
    return 0 if identical and not leaked else 1


def cmd_serve(args) -> int:
    """Run the machine as a multi-tenant service; print the ledger."""
    from repro.harness.service import ServiceConfig, run_service

    service = ServiceConfig(
        duration_seconds=args.duration,
        arrivals=args.arrivals,
        rate=args.rate,
        tenants_per_class=args.tenants,
        max_inflight=args.max_inflight,
        deadline_seconds=args.deadline,
        latency_target_seconds=args.target,
        mutation_interval_seconds=args.mutation_interval,
        append_fraction=args.append_fraction,
        pool_chaos=args.pool_chaos,
        validate=not args.no_validate,
        seed=args.seed,
    )
    faults = _resolve_faults(args)
    database = _database(args.benchmark, args.scale_factor, args.data_scale)
    start = time.time()
    result = run_service(
        database, workload=args.benchmark, strategy=args.strategy,
        service=service, faults=faults,
    )
    elapsed = time.time() - start
    print("service: {} x{:.0f}s simulated {} arrivals @ {:g}/s, "
          "strategy {} ({:.1f}s wall)".format(
              args.benchmark, args.duration, args.arrivals, args.rate,
              args.strategy, elapsed))
    print("  arrivals {}  completed {}  shed {}  degraded {}  "
          "cancelled {}".format(
              result.arrivals, result.completed, result.shed,
              result.degraded, result.cancelled))
    print("  epochs advanced: {}  snapshots retired: {}".format(
        result.epochs, result.metrics.total("snapshots_retired")))
    print("  conservation (arrivals == completed+shed+cancelled): "
          "{}".format(result.conserved()))
    if service.validate:
        print("  byte-identical to reference: {}".format(result.identical))
        for line in result.divergences[:5]:
            print("    DIVERGED {}".format(line))
    if result.faults_injected:
        print("  faults injected: {} (digest {})".format(
            result.faults_injected, result.fault_digest))
    print("  per-class SLO ledger:")
    for cls, row in sorted(result.ledger.items()):
        print("    {}:".format(cls))
        for key, value in row.items():
            print("      {:18s} {:.6g}".format(key, value))
    print("  per-tenant ledger:")
    for tenant, row in sorted(result.tenant_ledger.items()):
        print("    {:16s} arrivals {:.0f} completed {:.0f} shed {:.0f} "
              "p99 {:.4g}s".format(
                  tenant, row.get("arrivals", 0.0),
                  row.get("completed", 0.0), row.get("shed", 0.0),
                  row.get("p99", 0.0)))
    if result.tenant_faults:
        print("  chaos blame per tenant:")
        for tenant, row in sorted(result.tenant_faults.items()):
            print("    {:16s} {}".format(tenant, ", ".join(
                "{}={:g}".format(k, v) for k, v in sorted(row.items()))))
    summary = result.metrics.service_summary()
    print("  service totals: {}".format(", ".join(
        "{}={:g}".format(k, v) for k, v in summary.items())))
    ok = result.conserved() and (result.identical or not service.validate)
    return 0 if ok else 1


def cmd_query(args) -> int:
    faults = _resolve_faults(args)
    database = _database(args.benchmark, args.scale_factor, args.data_scale)
    queries = sql_workload(database, {"adhoc": args.sql})
    run = run_workload(database, queries, args.strategy,
                       collect_results=True, faults=faults)
    payload = run.results["adhoc"]
    for row in payload.row_tuples()[: args.limit]:
        print(tuple(value.item() if isinstance(value, np.generic) else value
                    for value in row))
    print("[{} rows; {:.4f}s simulated; PCIe {:.4f}s; {} aborts]".format(
        len(payload), run.seconds, run.metrics.transfer_seconds,
        run.metrics.aborts))
    return 0


def cmd_report(args) -> int:
    from repro.harness.report import evaluate_claims, render

    verdicts = evaluate_claims(full=args.full)
    print(render(verdicts))
    return 0 if all(holds for _, holds, _ in verdicts) else 1


def cmd_strategies(_args) -> int:
    for name in STRATEGY_NAMES:
        print(name)
    return 0


def cmd_compress(args) -> int:
    from repro.storage.compression import (
        compress_database,
        compression_summary,
    )

    database = _database(args.benchmark, args.scale_factor, args.data_scale)
    before = database.nominal_bytes
    report = compress_database(database)
    after = database.nominal_bytes
    print(compression_summary(report))
    print("total: {:.2f} GiB -> {:.2f} GiB ({:.2f}x)".format(
        before / GIB, after / GIB, before / max(after, 1)))
    return 0


def add_common(p, scale_factor=10, data_scale=1e-4,
               strategy="data_driven_chopping"):
    """The database flags, plus ``--strategy`` unless it is None."""
    p.add_argument("--benchmark", choices=tuple(BENCHMARKS), default="ssb")
    p.add_argument("--scale-factor", type=float, default=scale_factor)
    p.add_argument("--data-scale", type=float, default=data_scale)
    if strategy is not None:
        p.add_argument("--strategy", choices=STRATEGY_NAMES,
                       default=strategy)


def add_faults(p):
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="deterministic fault injection, e.g. "
                        "'pcie=0.01,kernel=0.005,seed=42', a bare uniform "
                        "rate '0.02', or pool's process classes "
                        "'crash=0.1,hang=0.05' (default: $REPRO_FAULTS)")


def add_lifecycle(p, max_inflight=None):
    """The query-lifecycle flags ``run`` and ``serve`` share."""
    p.add_argument("--max-inflight", type=int, default=max_inflight,
                   metavar="N",
                   help="admission control: at most N queries in flight "
                        "(default: {})".format(max_inflight or "unlimited"))
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="per-query deadline in simulated seconds (serve: "
                        "each SLO class multiplies it, premium 4x, "
                        "standard 2x); late queries are cancelled "
                        "cooperatively")


def add_jobs(p):
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes (default: $REPRO_JOBS, else 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Robust Query Processing in "
                    "Co-Processor-accelerated Databases' (SIGMOD 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("figures", nargs="*",
                         help="figure ids (default: all)")
    figures.add_argument("--fast", action="store_true",
                         help="reduced sweep sizes")
    add_jobs(figures)
    figures.set_defaults(func=cmd_figures)

    runner = sub.add_parser("run", help="run a benchmark workload")
    add_common(runner)
    runner.add_argument("--users", type=int, default=1)
    runner.add_argument("--repetitions", type=int, default=2)
    runner.add_argument("--gpus", type=int, default=1)
    runner.add_argument("--gpu-memory-gib", type=float, default=4.0)
    runner.add_argument("--gpu-cache-gib", type=float, default=1.5)
    runner.add_argument("--cold", action="store_true",
                        help="start with a cold device cache")
    runner.add_argument("--copy-engine", action="store_true",
                        help="asynchronous copy engine: per-device duplex "
                             "DMA channels, coalescing, and prefetch "
                             "(default: serialized single-channel bus)")
    runner.add_argument("--split", action="store_true",
                        help="intra-operator co-processing: divide each "
                             "eligible operator between the CPU and a GPU "
                             "by a HyPE-chosen ratio (default: off)")
    runner.add_argument("--split-ratio", type=float, default=None,
                        metavar="R",
                        help="fixed GPU work fraction in [0, 1] for split "
                             "execution (default: cost-model chosen); "
                             "implies --split")
    runner.add_argument("--coupled", action="store_true",
                        help="coupled/integrated-GPU preset per arXiv "
                             "1307.1955: shared physical memory, no PCIe "
                             "staging cost; implies --split")
    runner.add_argument("--trace", action="store_true",
                        help="print the operator timeline")
    add_faults(runner)
    add_lifecycle(runner)
    runner.add_argument("--overload-policy", choices=OVERLOAD_POLICIES,
                        default="queue",
                        help="what happens to queries beyond the "
                             "in-flight limit (default: queue)")
    runner.set_defaults(func=cmd_run)

    pool = sub.add_parser(
        "pool", help="chaos-soak the self-healing morsel pool"
    )
    add_common(pool, scale_factor=1, data_scale=1e-2, strategy=None)
    add_jobs(pool)
    add_faults(pool)
    pool.add_argument("--heartbeat", type=float, default=None,
                      metavar="SECONDS",
                      help="hang-watchdog heartbeat deadline "
                           "(default: 2.0 under chaos, off otherwise)")
    pool.add_argument("--max-restarts", type=int, default=16, metavar="N",
                      help="worker respawn budget before the pool "
                           "degrades to sequential (default: 16)")
    pool.set_defaults(func=cmd_pool)

    serve = sub.add_parser(
        "serve", help="run the machine as a multi-tenant service"
    )
    add_common(serve, scale_factor=1, data_scale=1e-2,
               strategy="critical_path")
    serve.add_argument("--duration", type=float, default=20.0,
                       metavar="SECONDS",
                       help="simulated seconds of arrival traffic")
    serve.add_argument("--arrivals", choices=("poisson", "diurnal"),
                       default="poisson")
    serve.add_argument("--rate", type=float, default=50.0, metavar="QPS",
                       help="aggregate mean arrival rate "
                            "(queries per simulated second)")
    serve.add_argument("--tenants", type=int, default=2, metavar="N",
                       help="tenants per SLO class (default: 2)")
    add_lifecycle(serve, max_inflight=4)
    serve.add_argument("--target", type=float, default=None,
                       metavar="SECONDS",
                       help="base p99 latency target for the attainment "
                            "ledger (same per-class multipliers)")
    serve.add_argument("--mutation-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="append-batch cadence in simulated seconds "
                            "(default: no concurrent mutation)")
    serve.add_argument("--append-fraction", type=float, default=0.05,
                       metavar="F")
    serve.add_argument("--pool-chaos", action="store_true",
                       help="cross-check each append epoch through the "
                            "self-healing process pool under chaos")
    serve.add_argument("--no-validate", action="store_true",
                       help="skip reference-engine identity checks")
    serve.add_argument("--seed", type=int, default=11)
    add_faults(serve)
    serve.set_defaults(func=cmd_serve)

    query = sub.add_parser("query", help="run ad-hoc SQL")
    query.add_argument("sql")
    add_common(query)
    query.add_argument("--limit", type=int, default=20)
    add_faults(query)
    query.set_defaults(func=cmd_query)

    strategies = sub.add_parser("strategies",
                                help="list placement strategies")
    strategies.set_defaults(func=cmd_strategies)

    compress = sub.add_parser("compress",
                              help="show the compression report")
    add_common(compress)
    compress.set_defaults(func=cmd_compress)

    report = sub.add_parser(
        "report", help="regenerate the paper-vs-measured claim table"
    )
    report.add_argument("--full", action="store_true",
                        help="judge each claim on its grid at full size "
                             "(slower, tighter numbers)")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # a bad flag value (or $REPRO_JOBS, or SQL that does not parse, bind
    # or plan) is a one-line error, not a traceback
    try:
        if "jobs" in args:
            args.jobs = resolve_jobs(args.jobs)
        return args.func(args)
    except ValueError as error:
        print("error: {}".format(error))
        return 1


if __name__ == "__main__":
    sys.exit(main())
