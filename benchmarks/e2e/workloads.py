"""The five pinned workloads.

Each drives the program exactly as a user does — public functions,
public call arguments, public result objects; no toggles, wrappers or
environment switches.  A workload object lives for one *unit* (one
fresh process): ``setup()`` (untimed, reported as set-up),
``run()`` (the timed region), ``close()`` (release processes and
segments), ``check()`` (correctness, outside the timed region).

``seed`` only ever changes generated *inputs* (service seeds, the SQL
generator seed, database seeds); ``scale`` shrinks a unit for the smoke
test and is 1.0 in every measured run.  The pinned statistics in
``pinned.json`` apply to ``seed == 0 and scale == 1.0``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from contextlib import contextmanager
from time import perf_counter, process_time
from typing import Dict, List, Optional

from repro.cli import FIGURE_DRIVERS
from repro.engine import morsel, plan_cache
from repro.engine.execution import execute_functional
from repro.harness.experiments import clear_database_caches
from repro.harness.parallel import MorselPool
from repro.harness.runner import (ValidationError, run_workload,
                                  validate_results)
from repro.harness.service import ServiceConfig, run_service
from repro.storage import shm
from repro.workloads import sql_workload, ssb

from benchmarks.e2e import sqlgen


def _digest(value) -> str:
    """Short sha256 of a JSON-able value; floats keep 9 significant
    digits so the digest survives a libm that rounds the last bit
    differently."""
    def normal(item):
        if isinstance(item, float):
            return "{:.9g}".format(item)
        if isinstance(item, dict):
            return {str(key): normal(val) for key, val in item.items()}
        if isinstance(item, (list, tuple)):
            return [normal(val) for val in item]
        return item
    text = json.dumps(normal(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rows_digest(payload) -> str:
    return _digest([list(map(_plain, row)) for row in payload.row_tuples()])


def _plain(value):
    """numpy scalar -> Python scalar (JSON-able)."""
    return value.item() if hasattr(value, "item") else value


def children_cpu_seconds() -> float:
    """user+sys seconds consumed so far by this process's live children
    (Linux): their pids from ``/proc``, their time from each one's CPU
    clock, whose id is what ``clock_getcpuclockid(3)`` returns.  Reaped
    children are in ``RUSAGE_CHILDREN``."""
    total = 0.0
    for task in os.listdir("/proc/self/task"):
        with open("/proc/self/task/{}/children".format(task)) as handle:
            pids = handle.read().split()
        for pid in pids:
            try:
                total += time.clock_gettime((~int(pid) << 3) | 2)
            except OSError:
                continue  # exited between the two reads
    return total


def cpu_seconds() -> float:
    """CPU consumed so far by this process and all its children."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (process_time() + children_cpu_seconds()
            + reaped.ru_utime + reaped.ru_stime)


class Workload:
    """State and results of one unit."""

    name = ""

    def __init__(self, seed: int, scale: float, pinned: dict,
                 traced: bool = False):
        self.seed = seed
        self.scale = scale
        #: run() is being profiled
        self.traced = traced
        #: this workload's entry of pinned.json
        self.pinned = pinned
        #: operations completed in the timed region
        self.ops = 0
        #: sum of simulated makespans produced (simulated clock)
        self.sim_s = 0.0
        #: the timed region in slices, ``[key, wall_s, cpu_s]`` each: a
        #: key names one piece of work, the same in every unit of a run,
        #: so run.py has several timings of every piece to choose from
        self.slices: List[list] = []
        #: operations one slice of each key completes (set by check())
        self.slice_ops: Dict[str, int] = {}
        #: host milliseconds per call, where a call is one operation
        self.latencies_ms: List[float] = []
        #: what went wrong, one line per failed operation or check
        self.failures: List[str] = []
        #: deterministic statistics compared with pinned.json
        self.stats: Dict[str, object] = {}
        #: exact counters and simulated values for the per-layer report
        self.counters: Dict[str, float] = {}
        #: host timings of single set-up steps, milliseconds
        self.setup_ms: Dict[str, float] = {}
        self._cache_hits = 0
        self._cache_misses = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload holds; called once after run()."""

    def check(self, oracle: bool) -> None:
        """Correctness, outside the timed region.  ``oracle`` asks for
        the expensive reference-engine pass (once per run)."""

    # -- helpers -------------------------------------------------------

    @contextmanager
    def timed(self, key: str):
        """Time one slice of run() on the host's wall and CPU clocks."""
        cpu_start = cpu_seconds()
        start = perf_counter()
        try:
            yield
        finally:
            wall_s = perf_counter() - start
            self.slices.append([key, wall_s, cpu_seconds() - cpu_start])

    def count_ops(self) -> None:
        """Operations of the timed region, from its slices."""
        self.ops = sum(self.slice_ops[key] for key, _, _ in self.slices)

    def start_counters(self) -> None:
        """Snapshot the program's public stats dicts before run()."""
        self._plan_before = dict(plan_cache.stats)

    def finish_counters(self) -> None:
        """Deltas of the public stats dicts over run()."""
        hits, misses = (plan_cache.stats[key] - self._plan_before[key]
                        for key in ("hits", "misses"))
        self.counters["engine.kernels.plan_cache_hit_rate"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        self.counters["storage.shm_exports"] = shm.stats["exports"]

    def add_metrics(self, metrics) -> None:
        """Accumulate one run's MetricsCollector into the counters."""
        add = self._add
        add("engine.execution.wasted_sim_s", metrics.wasted_seconds)
        add("hardware.h2d_bytes", metrics.cpu_to_gpu_bytes)
        add("hardware.bus_queue_sim_s", metrics.transfer_queue_seconds)
        self._cache_hits += metrics.cache_hits
        self._cache_misses += metrics.cache_misses
        for phase in ("plan", "des", "numpy", "validate", "mutate"):
            add("harness.phase_{}_s".format(phase),
                metrics.phase_seconds.get(phase, 0.0))
        accesses = self._cache_hits + self._cache_misses
        self.counters["hardware.cache_hit_rate"] = (
            self._cache_hits / accesses if accesses else 0.0)

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value


# -- figures_grid ------------------------------------------------------


class FiguresGrid(Workload):
    """What ``repro figures`` users wait on: seven figure grids."""

    name = "figures_grid"
    FIGURES = ("fig03", "fig12", "fig14a", "fig18b", "fig24",
               "multigpu", "overlap")

    def setup(self) -> None:
        clear_database_caches()
        self.tables = {}

    def run(self) -> None:
        full = self.scale >= 1.0
        figures = self.FIGURES if full else self.FIGURES[3:5]
        for figure in figures:
            driver, default_kwargs, fast_kwargs = FIGURE_DRIVERS[figure]
            kwargs = default_kwargs if full else fast_kwargs
            with self.timed(figure):
                self.tables[figure] = driver(jobs=1, **kwargs)

    def check(self, oracle: bool) -> None:
        for figure, table in self.tables.items():
            self.sim_s += sum(row["seconds"] for row in table.rows)
            self.stats["table." + figure] = _digest(table.format_table())
            self._add("engine.execution.wasted_sim_s", sum(
                row.get("wasted_seconds", 0.0) for row in table.rows))
            self._add("hardware.bus_queue_sim_s", sum(
                row.get("queue_seconds", 0.0) for row in table.rows))
        self.stats["sim_s"] = self.sim_s
        # One operation = one completed simulated query.  The drivers
        # return one table row per grid cell, not query counts, so the
        # rows are counted here and the queries a default-kwargs cell
        # runs are pinned per figure; the traced unit checks the product
        # against the profile's record_query calls.
        self.slice_ops = {
            figure: len(table.rows) * self.pinned["queries_per_row"][figure]
            for figure, table in self.tables.items()}
        self.count_ops()


# -- serve_steady / serve_chaos_append ---------------------------------


class _Serve(Workload):
    """Shared shape of the two service workloads."""

    STRATEGY = "critical_path"
    DB_SEED = 42
    QUERY_NAMES: Optional[List[str]] = None

    def service_config(self) -> ServiceConfig:
        raise NotImplementedError

    def setup(self) -> None:
        self.database = ssb.generate(
            scale_factor=1, data_scale=1e-2 * self.scale, seed=self.DB_SEED)

    def run(self) -> None:
        with self.timed("service"):
            self.result = run_service(
                self.database, strategy=self.STRATEGY,
                service=self.service_config(),
                query_names=self.QUERY_NAMES, faults=self.faults())

    def faults(self) -> Optional[str]:
        return None

    def check(self, oracle: bool) -> None:
        result = self.result
        self.slice_ops = {"service": result.completed}
        self.count_ops()
        self.sim_s = result.simulated_seconds
        if not result.conserved():
            self.failures.append(
                "ledger not conserved: {} arrivals != {} completed + {} "
                "shed + {} cancelled".format(
                    result.arrivals, result.completed, result.shed,
                    result.cancelled))
        self.failures.extend(result.divergences)
        self.stats.update({
            "arrivals": result.arrivals, "completed": result.completed,
            "shed": result.shed, "cancelled": result.cancelled,
            "epochs": result.epochs, "sim_s": self.sim_s,
            "ledger": _digest(result.ledger),
            "faults_injected": result.faults_injected,
            "fault_digest": result.fault_digest,
        })
        metrics = result.metrics
        self.add_metrics(metrics)
        self.counters.update({
            "storage.epochs": result.epochs,
            "faults.injected": result.faults_injected,
            "harness.shed_frac": result.shed / max(result.arrivals, 1),
            "harness.premium_attainment":
                result.ledger.get("premium", {}).get("attainment", 0.0),
            "harness.sim_p99_ms": metrics.latency_percentile(0.99) * 1e3,
            "fact_rows": self.database.table("lineorder").actual_rows,
        })


class ServeSteady(_Serve):
    """The ROADMAP's serve profile: read-only fast path, no oracle."""

    name = "serve_steady"

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(
            duration_seconds=20 * self.scale, arrivals="poisson",
            rate=200, tenants_per_class=2, validate=False,
            seed=11 + self.seed)

    def check(self, oracle: bool) -> None:
        super().check(oracle)
        if not oracle:
            return
        # The service keeps no payloads, so the oracle pass replays the
        # same 13 queries on the same database under the same strategy
        # through the batch harness and validates those.
        queries = ssb.workload(self.database)
        try:
            run_workload(self.database, queries, self.STRATEGY,
                         validate=True)
        except ValidationError as error:
            self.failures.append("oracle: {}".format(error))


class ServeChaosAppend(_Serve):
    """Writes beside reads, the failure path beside the fast path."""

    name = "serve_chaos_append"
    DB_SEED = 7
    QUERY_NAMES = ["Q1.1", "Q2.1", "Q3.1", "Q4.1"]

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(
            duration_seconds=24 * self.scale, arrivals="diurnal", rate=60,
            deadline_seconds=0.5, latency_target_seconds=0.2,
            mutation_interval_seconds=8 * self.scale, validate=True,
            seed=47 + self.seed)

    def faults(self) -> str:
        return "pcie=0.04,heap=0.03,kernel=0.03,seed={}".format(
            29 + self.seed)


# -- pool_batch --------------------------------------------------------


class PoolBatch(Workload):
    """The fused functional engine over shared memory; no DES at all."""

    name = "pool_batch"
    ROUNDS = 15
    JOBS = 2

    def setup(self) -> None:
        self.database = ssb.generate(
            1.0, data_scale=0.5 * self.scale, seed=42 + self.seed)
        self.queries = ssb.workload(self.database)
        self.query_by_name = {query.name: query for query in self.queries}
        self.worker_pipes = {}
        self.in_process_declines = 0
        start = perf_counter()
        shm.export_database(self.database)
        self.setup_ms["storage.shm_export_ms"] = \
            (perf_counter() - start) * 1e3
        start = perf_counter()
        self.pool = MorselPool(self.database, self.queries,
                               workload="ssb", jobs=self.JOBS)
        self.pool.warm()
        self.setup_ms["harness.pool_start_ms"] = \
            (perf_counter() - start) * 1e3
        self.pool.run_queries()  # one untimed round
        self.last = {}

    def run(self) -> None:
        answer = self._in_process if self.traced else self.pool.run_query
        last, latencies = self.last, self.latencies_ms
        for _ in range(max(1, round(self.ROUNDS * self.scale))):
            with self.timed("round"):
                for query in self.queries:
                    start = perf_counter()
                    last[query.name] = answer(query.name)
                    latencies.append((perf_counter() - start) * 1e3)

    def _in_process(self, name: str):
        """What ``MorselPool.run_query`` does, with the workers' chunks
        executed here: a profile of the pool's parent is one long wait
        on its pipes, so the traced unit runs the same fused chunks and
        the same merge in this process, where the profiler sees them.
        Pool IPC is therefore outside the trace."""
        query = self.query_by_name[name]
        try:
            pipe = morsel.build(query.instantiate(), self.database)
        except morsel.Decline:
            pipe = None
        if pipe is None or not pipe.supports_partials:
            self.in_process_declines += 1
            return execute_functional(query.instantiate(), self.database)
        # a worker builds each query's pipeline once, the parent per call
        worker_pipe = self.worker_pipes.setdefault(name, pipe)
        ranges = pipe.ranges()
        per_chunk = -(-len(ranges) // self.JOBS)
        acc, totals = pipe.new_accumulator(), None
        for first in range(0, len(ranges), per_chunk):
            group = ranges[first:first + per_chunk]
            partial = worker_pipe.run_chunk(group[0][0], group[-1][1])
            pipe.absorb(acc, partial)
            totals = (partial.chain_counts if totals is None else tuple(
                a + b for a, b in zip(totals, partial.chain_counts)))
        _, nominal = pipe.replay_nominal(totals)
        return pipe.run_tail(pipe.finalize(acc, nominal))

    def close(self) -> None:
        declined = self.pool.fallbacks + self.in_process_declines
        self.counters.update({
            "harness.pool_restarts": self.pool.counters["worker_restarts"],
            "harness.pool_fallbacks": self.pool.fallbacks,
            "engine.morsel.declined_queries": declined,
            "engine.morsel.fused_queries":
                len(self.latencies_ms) - declined,
        })
        if self.pool.fallbacks:
            self.failures.append(
                "{} pool fallbacks".format(self.pool.fallbacks))
        if self.pool.degraded is not None:
            self.failures.append(
                "pool degraded: {}".format(self.pool.degraded))
        try:
            self.pool.close()
        except RuntimeError as error:  # leaked segments
            self.failures.append(str(error))

    def check(self, oracle: bool) -> None:
        self.slice_ops = {"round": len(self.queries)}
        self.count_ops()
        leaked = shm.leaked_segments()
        if leaked:
            self.failures.append("leaked shm segments: {}".format(leaked))
        digests = {}
        for query in self.queries:
            want = execute_functional(
                query.instantiate(), self.database).payload
            got = self.last[query.name].payload
            if got.row_tuples() != want.row_tuples():
                self.failures.append(
                    "{}: pool rows differ from sequential".format(
                        query.name))
            digests[query.name] = _rows_digest(got)
        self.stats["results"] = _digest(digests)
        self.stats["ops"] = self.ops


# -- adhoc_sql ---------------------------------------------------------


class AdhocSql(Workload):
    """The ``repro query`` path: cold SQL, one statement at a time."""

    name = "adhoc_sql"
    STATEMENTS = 100
    STRATEGY = "data_driven_chopping"
    #: the oracle needs ~4 s per statement at full size, so every tenth
    #: statement is validated on a replica this many times smaller
    REPLICA_SHRINK = 50

    def setup(self) -> None:
        self.database = ssb.generate(
            1, data_scale=0.25 * self.scale, seed=7 + self.seed)
        count = max(len(sqlgen.TEMPLATES),
                    round(self.STATEMENTS * self.scale))
        self.statements = sqlgen.generate(self.seed, count)
        self.runs = []

    def run(self) -> None:
        database = self.database
        for name, sql in self.statements:
            with self.timed(name):
                queries = sql_workload(database, {name: sql})
                run = run_workload(database, queries, self.STRATEGY,
                                   collect_results=True)
            self.latencies_ms.append(self.slices[-1][1] * 1e3)
            self.runs.append(run)

    def check(self, oracle: bool) -> None:
        self.slice_ops = {name: 1 for name, _ in self.statements}
        self.count_ops()
        for run in self.runs:
            self.sim_s += run.seconds
            self.add_metrics(run.metrics)
        self.stats["sim_s"] = self.sim_s
        self.stats["results"] = {
            name: _rows_digest(run.results[name])
            for (name, _), run in zip(self.statements, self.runs)
        }
        if not oracle:
            return
        replica = ssb.generate(
            1, data_scale=0.25 * self.scale / self.REPLICA_SHRINK,
            seed=7 + self.seed)
        for name, sql in self.statements[::10]:
            queries = sql_workload(replica, {name: sql})
            run = run_workload(replica, queries, self.STRATEGY,
                               collect_results=True)
            try:
                validate_results(replica, queries, run.results)
            except ValidationError as error:
                self.failures.append("oracle: {}".format(error))


WORKLOADS = {
    cls.name: cls
    for cls in (FiguresGrid, ServeSteady, ServeChaosAppend, PoolBatch,
                AdhocSql)
}
