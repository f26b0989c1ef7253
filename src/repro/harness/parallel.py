"""Parallel experiment-grid execution.

The paper's evaluation (Sec. 6, Figs. 1-25) is a grid of independent
cells — strategy x users x scale factor x repetitions.  Every figure
driver in :mod:`repro.harness.experiments` describes its grid as a list
of declarative :class:`Cell` specs and hands them to :func:`run_cells`,
which executes them either in-process (``jobs=1``, the default) or
fanned out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

Guarantees:

* **Determinism.**  Outcomes are returned in cell order regardless of
  the worker count, and every cell is fully self-describing, so the
  tables built from a parallel run are byte-identical to a sequential
  run.
* **Amortised setup.**  Databases and workload query lists are cached
  per ``(workload, scale_factor, data_scale)`` in each process, so a
  worker builds SSB at scale factor 10 once no matter how many cells it
  executes against it.
* **Zero-copy columns.**  Unless ``REPRO_SHM=0``, the parent exports
  each grid's databases once via :mod:`repro.storage.shm` and workers
  *attach* — mapping the same physical pages read-only instead of
  regenerating (or pickling) gigabytes per process.

:class:`MorselPool` adds **intra-query** parallelism on the same
foundation: persistent workers attach the database from shared memory
and execute fused morsel ranges (:mod:`repro.engine.morsel`), shipping
one merged partial per worker chunk back to the parent, which merges
partials at the pipeline breaker and applies the tail operators.
Results are byte-identical to sequential execution; any worker failure
or unfusable plan falls back to an in-process run.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from time import monotonic
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.hardware import SystemConfig
from repro.harness.runner import run_workload, workload_footprint_bytes
from repro.metrics import MetricsCollector
from repro.storage import shm
from repro.workloads import BENCHMARKS, micro, sql_workload

#: Cell workload names understood by :func:`_cell_workload`.
WORKLOADS = tuple(BENCHMARKS) + ("micro_serial", "micro_parallel")

#: Environment variable consulted when no explicit jobs count is given.
JOBS_ENV = "REPRO_JOBS"

#: Set to "0" to disable shared-memory column export to workers.
SHM_ENV = "REPRO_SHM"


def shm_enabled() -> bool:
    """True when workers should attach databases from shared memory."""
    return (os.environ.get(SHM_ENV, "").strip() != "0"
            and shm.available())


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit > $REPRO_JOBS > 1."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "")
        if raw.strip():
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    "{}={!r} is not an integer".format(JOBS_ENV, raw)
                )
        else:
            jobs = 1
    if int(jobs) < 1:
        raise ValueError("jobs must be >= 1, got {}".format(jobs))
    return int(jobs)


@dataclass(frozen=True)
class Cell:
    """One experiment-grid cell: a declarative ``run_workload`` call.

    Cells are plain picklable data — everything a worker process needs
    to reproduce the run, and nothing tied to live objects of the
    parent process.
    """

    workload: str = "ssb"
    scale_factor: float = 10.0
    strategy: str = "cpu_only"
    #: None uses the experiment module's DATA_SCALE default
    data_scale: Optional[float] = None
    config: Optional[SystemConfig] = None
    users: int = 1
    repetitions: int = 1
    warm_cache: bool = True
    placement_policy: str = "lfu"
    #: restrict the workload to these query names (None = all)
    query_names: Optional[Tuple[str, ...]] = None
    #: "run" executes the workload; "footprint" only sizes it
    measure: str = "run"
    #: deterministic fault injection: a FaultConfig (frozen, picklable)
    #: or a spec string; None runs fault-free
    faults: Optional[object] = None
    #: query-lifecycle layer: a LifecycleConfig (frozen, picklable) or a
    #: spec string; None runs with the layer off (zero overhead)
    lifecycle: Optional[object] = None
    #: cross-check query results against the reference evaluator
    validate: bool = False

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ValueError(
                "unknown cell workload {!r}; expected one of {}".format(
                    self.workload, WORKLOADS
                )
            )
        if self.measure not in ("run", "footprint"):
            raise ValueError("measure must be 'run' or 'footprint'")


@dataclass
class CellOutcome:
    """What one executed cell produced (picklable): the run's metrics
    collector plus the three values it cannot supply."""

    #: every simulated measurement and the wall-clock phase breakdown
    #: of the producing run (a fresh collector for a footprint cell)
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    footprint_bytes: int = 0
    #: fault-injection accounting (zero / None for fault-free cells)
    faults_injected: int = 0
    fault_digest: Optional[str] = None


#: (family, scale_factor, data_scale) -> ShmManifest; populated in
#: worker processes by the pool initializer so ``_cell_workload``
#: attaches shared columns instead of regenerating the dataset.
_cell_manifests: Dict[Tuple, object] = {}


def _database_family(workload: str) -> str:
    """Which generated database a cell workload runs against."""
    return "tpch" if workload == "tpch" else "ssb"


def _default_data_scale() -> float:
    from repro.harness import experiments as E
    return E.DATA_SCALE


def _shm_worker_init(manifests: Dict[Tuple, object]) -> None:
    """Pool initializer: receive the parent's shared-column manifests."""
    _cell_manifests.update(manifests)
    # Fork-inherited parent databases would shadow the shared mappings.
    _cell_workload.cache_clear()


@functools.lru_cache(maxsize=64)
def _cell_workload(workload: str, scale_factor: float,
                   data_scale: Optional[float],
                   query_names: Optional[Tuple[str, ...]]):
    """Per-process cache of (database, queries) for one cell shape."""
    # Imported lazily: experiments imports this module at load time.
    from repro.harness import experiments as E

    if data_scale is None:
        data_scale = E.DATA_SCALE
    family = _database_family(workload)
    manifest = _cell_manifests.get((family, scale_factor, data_scale))
    if manifest is not None:
        database = shm.attach_database(manifest)
    elif family == "tpch":
        database = E.tpch_database(scale_factor, data_scale)
    else:
        database = E.ssb_database(scale_factor, data_scale)
    if workload in BENCHMARKS:
        queries = BENCHMARKS[workload].workload(database)
    elif workload == "micro_serial":
        queries = micro.serial_selection_workload(database)
    else:
        queries = micro.parallel_selection_workload(database)
    if query_names is not None:
        wanted = set(query_names)
        queries = [q for q in queries if q.name in wanted]
    return database, queries


def clear_workload_cache() -> None:
    """Drop the per-process (database, queries) cell cache."""
    _cell_workload.cache_clear()


def execute_cell(cell: Cell) -> CellOutcome:
    """Execute one cell in the current process."""
    database, queries = _cell_workload(
        cell.workload, cell.scale_factor, cell.data_scale, cell.query_names
    )
    footprint = workload_footprint_bytes(queries, database)
    if cell.measure == "footprint":
        return CellOutcome(footprint_bytes=footprint)
    run = run_workload(
        database, queries, cell.strategy,
        config=cell.config,
        users=cell.users,
        repetitions=cell.repetitions,
        warm_cache=cell.warm_cache,
        placement_policy=cell.placement_policy,
        faults=cell.faults,
        lifecycle=cell.lifecycle,
        validate=cell.validate,
    )
    return CellOutcome(metrics=run.metrics, footprint_bytes=footprint,
                       faults_injected=run.faults_injected,
                       fault_digest=run.fault_digest)


def run_cells(cells: Iterable[Cell],
              jobs: Optional[int] = None) -> List[CellOutcome]:
    """Execute ``cells`` and return their outcomes *in cell order*.

    ``jobs`` (or the ``--jobs``/``REPRO_JOBS`` default) picks the
    worker-process count; 1 executes in-process.  Cell ordering of the
    result list is independent of the worker count, which is what makes
    parallel figure regeneration byte-identical to sequential runs.
    """
    cells = list(cells)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(cells) <= 1:
        return [execute_cell(cell) for cell in cells]
    workers = min(jobs, len(cells))
    initializer, initargs = None, ()
    if shm_enabled():
        manifests: Dict[Tuple, object] = {}
        for cell in cells:
            database, _ = _cell_workload(
                cell.workload, cell.scale_factor, cell.data_scale, None
            )
            key = (_database_family(cell.workload), cell.scale_factor,
                   cell.data_scale if cell.data_scale is not None
                   else _default_data_scale())
            if key not in manifests:
                manifests[key] = shm.export_database(database)
        initializer, initargs = _shm_worker_init, (manifests,)
    with ProcessPoolExecutor(max_workers=workers, initializer=initializer,
                             initargs=initargs) as pool:
        return list(pool.map(execute_cell, cells))


# ---------------------------------------------------------------------------
# Intra-query morsel pool
# ---------------------------------------------------------------------------

def _execute_unlink_race(manifest) -> None:
    """Worker-side shm-unlink-race fault: destroy the shared segment.

    Models a crashing worker whose resource tracker (or a buggy cleanup
    path) unlinks a segment the parent still owns.  Surviving workers
    keep their mappings (POSIX unlink only removes the name), but any
    *respawned* worker fails to attach — exercising the parent's
    re-export recovery path.
    """
    try:
        seg = _shm_module.SharedMemory(name=manifest.shm_name)
        seg.unlink()
    except Exception:
        pass


try:
    from multiprocessing import shared_memory as _shm_module
except ImportError:  # pragma: no cover
    _shm_module = None


def _pool_worker_main(index: int, manifest, workload,
                      task_r, result_w, heartbeat_seconds=None) -> None:
    """Worker process main loop: recv chunk tasks, send partials.

    Process-fault directives ride along with the task they were planned
    for; the hook below is the single injection site, so chaos runs
    depend only on the parent's deterministic plan, never on worker
    scheduling.

    Liveness is signalled by time, not by volume: a background
    heartbeater thread beats every ``beat_every`` seconds (covering long
    uninterruptible phases like join-build inside the first morsel), and
    the compute loop beats after a morsel only once ``beat_every`` has
    passed since this worker last sent *anything* — so a progressing
    worker is heard from at least every ``beat_every`` plus one morsel,
    and a chunk shorter than that sends one message, its result.  The
    injected hang freezes *both* — it models a fully stuck process — so
    the parent's watchdog still fires.
    """
    import threading
    import time

    from repro.engine import morsel

    shm.forget_exports()  # fork-inherited exports belong to the parent
    try:
        # attach the shared database and build the workload's plans
        # once: a benchmark name, or (name, sql) pairs for custom SQL
        database = shm.attach_database(manifest)
        if workload in BENCHMARKS:
            built = BENCHMARKS[workload].workload(database)
        else:
            built = sql_workload(database, list(workload))
    except shm.ShmIntegrityError as exc:
        result_w.send(("init", index, False, "integrity", repr(exc)))
        return
    except FileNotFoundError as exc:
        result_w.send(("init", index, False, "missing", repr(exc)))
        return
    except Exception as exc:  # pragma: no cover - defensive
        result_w.send(("init", index, False, "error", repr(exc)))
        return
    result_w.send(("init", index, True, "", ""))
    queries = {query.name: query for query in built}
    #: query name -> its FusedPipeline, built on first use and kept for
    #: the worker's life
    pipelines: Dict[str, object] = {}

    send_lock = threading.Lock()
    hb_stop = threading.Event()
    hb_frozen = threading.Event()
    beat_every = (heartbeat_seconds / 4.0
                  if heartbeat_seconds else 0.5)
    last_sent = monotonic()

    def _send(message) -> None:
        nonlocal last_sent
        with send_lock:
            result_w.send(message)
            last_sent = monotonic()

    def _heartbeater() -> None:
        while not hb_stop.wait(beat_every):
            if hb_frozen.is_set():
                continue
            try:
                _send(("hb", None))
            except (BrokenPipeError, OSError):
                return

    threading.Thread(target=_heartbeater, daemon=True).start()
    while True:
        try:
            msg = task_r.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        task_id, name, start, stop, directive = msg
        if directive is not None:
            if directive.kind == "crash":
                os._exit(11)
            elif directive.kind == "unlinkrace":
                _execute_unlink_race(manifest)
                os._exit(12)
            elif directive.kind == "hang":
                # Freeze all heartbeats; the parent's watchdog kills us.
                hb_frozen.set()
                time.sleep(directive.seconds)

        def _progress() -> None:
            if monotonic() - last_sent >= beat_every:
                _send(("hb", task_id))

        try:  # fused execution of one chunk of fact-table rows
            pipe = pipelines.get(name)
            if pipe is None:
                pipe = pipelines[name] = morsel.build(
                    queries[name].instantiate(), database)
            partial = pipe.run_chunk(start, stop, progress=_progress)
        except Exception as exc:
            _send(("err", task_id, repr(exc)))
            continue
        _send(("ok", task_id, partial))
        if directive is not None and directive.kind == "slowexit":
            time.sleep(directive.seconds)
            os._exit(0)
    hb_stop.set()
    shm.detach_all()


class _ChunkTask:
    """One worker chunk of a query's morsel ranges (parent side)."""

    __slots__ = ("chunk_index", "start", "stop", "directive", "kills")

    def __init__(self, chunk_index, start, stop, directive=None):
        self.chunk_index = chunk_index
        self.start = start
        self.stop = stop
        self.directive = directive
        self.kills = 0

    def take_directive(self):
        """Directive for the next execution (decrements crash repeats)."""
        directive = self.directive
        if directive is None:
            return None
        if directive.kind == "crash" and directive.repeats > 1:
            self.directive = directive.decremented()
        else:
            self.directive = None
        return directive


def _proc_cpu_seconds(pid: int):
    """CPU seconds (user+system) consumed by ``pid``; None off-Linux.

    The hang watchdog's second signal: a worker stuck in a long
    GIL-held numpy phase misses heartbeats but keeps accruing CPU,
    while a genuinely hung (sleeping) worker accrues none.
    """
    try:
        with open("/proc/{}/stat".format(pid), "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    except (OSError, IndexError, ValueError):
        return None


try:
    _CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _CLOCK_TICKS = 100


class _Worker:
    """Parent-side handle for one pool worker process."""

    __slots__ = ("index", "process", "conn", "task_w", "ready",
                 "init_failed", "task", "task_id", "last_beat",
                 "last_cpu")

    def __init__(self, index, process, conn, task_w):
        self.index = index
        self.process = process
        self.conn = conn
        self.task_w = task_w
        self.ready = False
        self.init_failed = None  # "integrity" | "missing" | "error"
        self.task = None  # outstanding _ChunkTask
        self.task_id = None
        self.last_beat = 0.0
        self.last_cpu = 0.0

    def close_pipes(self) -> None:
        for pipe in (self.conn, self.task_w):
            try:
                pipe.close()
            except OSError:  # pragma: no cover
                pass


class _PoolTaskError(RuntimeError):
    """A worker reported a query-level error (not a process death)."""


class _QueryRun:
    """Mutable per-query scheduler state."""

    __slots__ = ("name", "pipe", "pending", "done", "failure")

    def __init__(self, name, pipe, tasks):
        self.name = name
        self.pipe = pipe
        self.pending = deque(tasks)
        self.done = []
        self.failure = None


class MorselPool:
    """Self-healing intra-query parallelism over shared-memory columns.

    Persistent worker processes attach ``database`` from a shared
    segment (one export, zero copies) and execute fused morsel ranges
    (:mod:`repro.engine.morsel`).  Each worker merges its chunk's
    partials locally and ships ONE picklable partial back; the parent
    merges partials at the pipeline breaker, replays the nominal-row
    arithmetic, and applies the tail operators.  Results are
    byte-identical to sequential execution.

    The pool owns its workers directly (no ``ProcessPoolExecutor``, which
    condemns the whole pool on one death) and heals around process
    failure:

    * a **crashed** worker's chunk is re-queued to survivors and the
      worker is respawned (shm re-attach via the same manifest);
    * a worker that stops heartbeating past ``heartbeat_seconds`` is
      killed by the **watchdog** and handled like a crash;
    * a chunk that kills ``poison_threshold`` workers is **quarantined**
      — computed in-process for that range only, not the whole query;
    * a respawn that fails to attach (segment unlinked or corrupted)
      triggers a **re-export** under a fresh epoch;
    * after ``max_restarts`` respawns the pool **degrades to
      sequential** in-process execution with the reason recorded —
      never silently.

    Queries whose plans decline fusion (or that report worker-side
    *errors*, as opposed to deaths) still fall back to an in-process
    run — the pool can degrade but never wrongly answer.  Deterministic
    process-fault chaos is driven by a :class:`~repro.faults.FaultConfig`
    with process rates; see :class:`~repro.faults.ProcessFaultInjector`.
    """

    def __init__(self, database, queries, workload: str = "ssb",
                 jobs: Optional[int] = None, faults=None,
                 heartbeat_seconds: Optional[float] = None,
                 max_restarts: int = 16, poison_threshold: int = 2,
                 reap: bool = True):
        from repro.faults import FaultConfig, ProcessFaultInjector

        if workload != "sql" and workload not in BENCHMARKS:
            raise ValueError("MorselPool supports 'ssb', 'tpch', and 'sql'")
        self.database = database
        self.workload = workload
        if workload == "sql":
            missing = [q.name for q in queries if q.sql is None]
            if missing:
                raise ValueError(
                    "workload='sql' needs SQL text for {}".format(missing))
            self._workload_spec = tuple((q.name, q.sql) for q in queries)
        else:
            self._workload_spec = workload
        self.jobs = max(resolve_jobs(jobs), 1)
        self._queries = {query.name: query for query in queries}
        self.faults = FaultConfig.coerce(faults)
        self._injector = (ProcessFaultInjector(self.faults)
                          if self.faults is not None
                          and self.faults.process_enabled else None)
        if heartbeat_seconds is None and self._injector is not None:
            heartbeat_seconds = 2.0
        self.heartbeat_seconds = heartbeat_seconds
        self.max_restarts = max_restarts
        self.poison_threshold = max(poison_threshold, 1)
        self.counters: Counter = Counter()
        self.events: List[Dict[str, object]] = []
        self.degraded: Optional[str] = None
        self.fallbacks = 0
        self.orphans_reaped = shm.reap_orphans() if reap else 0
        self._ctx = _pool_context()
        self._manifest = shm.export_database(database)
        self._task_seq = 0
        self._restarts_used = 0
        self._float_gate: Dict[str, bool] = {}
        #: query name -> its FusedPipeline (None: fusion declined), built
        #: on first use and kept like the workers keep theirs — the
        #: database behind a pool never changes
        self._pipelines: Dict[str, object] = {}
        self._workers: List[_Worker] = [
            self._spawn_worker(i) for i in range(self.jobs)
        ]

    # -- worker lifecycle ------------------------------------------------

    def _spawn_worker(self, index: int) -> _Worker:
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(index, self._manifest, self._workload_spec,
                  task_r, result_w, self.heartbeat_seconds),
            daemon=True,
        )
        process.start()
        # Close the child's ends in the parent so pipe EOF semantics
        # track the child's life, not ours.
        task_r.close()
        result_w.close()
        worker = _Worker(index, process, result_r, task_w)
        worker.last_beat = monotonic()
        return worker

    def _try_respawn(self, index: int) -> Optional[_Worker]:
        """Respawn one worker within the restart budget (None = over)."""
        if self._restarts_used >= self.max_restarts:
            return None
        self._restarts_used += 1
        self.counters["worker_restarts"] += 1
        worker = self._spawn_worker(index)
        self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        if worker.process.is_alive():  # hung: kill it
            worker.process.terminate()
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover
                worker.process.kill()
                worker.process.join(timeout=1.0)
        else:
            worker.process.join(timeout=1.0)
        worker.close_pipes()

    def _reexport(self) -> None:
        """Export the database again under a fresh epoch.

        Surviving workers keep their (still mapped) old segment; only
        future respawns use the new manifest.
        """
        shm.invalidate(self.database)
        self._manifest = shm.export_database(self.database)
        self.counters["shm_reexports"] += 1

    def _degrade(self, reason: str, query: str) -> None:
        if self.degraded is None:
            self.degraded = reason
            self.counters["pool_degrades"] += 1
            self._record_event("pool_degraded", query, detail=reason)

    def _record_event(self, event: str, query: str, chunk=None,
                      worker=None, detail=None) -> None:
        self.events.append({
            "event": event, "query": query, "chunk": chunk,
            "worker": worker, "detail": detail,
        })

    # -- per-query scheduler ---------------------------------------------

    def _dispatch(self, worker: _Worker, state: _QueryRun,
                  task: _ChunkTask) -> bool:
        self._task_seq += 1
        task_id = self._task_seq
        directive = task.take_directive()
        try:
            worker.task_w.send((task_id, state.name, task.start,
                                task.stop, directive))
        except (BrokenPipeError, OSError):
            state.pending.appendleft(task)
            return False
        worker.task = task
        worker.task_id = task_id
        worker.last_beat = monotonic()
        if self.heartbeat_seconds is not None:  # the watchdog's baseline
            cpu = _proc_cpu_seconds(worker.process.pid)
            if cpu is not None:
                worker.last_cpu = cpu
        return True

    def _run_inproc(self, state: _QueryRun, task: _ChunkTask) -> None:
        state.done.append(state.pipe.run_chunk(task.start, task.stop))

    def _requeue_or_quarantine(self, state: _QueryRun, worker: _Worker,
                               kind: str) -> None:
        """A dead/hung worker's outstanding chunk goes back to work."""
        task, worker.task, worker.task_id = worker.task, None, None
        if task is None:
            return
        task.kills += 1
        if state.failure is not None:
            return  # query is aborting: drop the chunk
        if task.kills >= self.poison_threshold:
            self.counters["chunk_quarantines"] += 1
            self._record_event("chunk_quarantined", state.name,
                               chunk=task.chunk_index, worker=worker.index,
                               detail=kind)
            self._run_inproc(state, task)
        else:
            self.counters["chunk_requeues"] += 1
            self._record_event("chunk_requeued", state.name,
                               chunk=task.chunk_index, worker=worker.index,
                               detail=kind)
            state.pending.appendleft(task)

    def _handle_death(self, state: _QueryRun, worker: _Worker) -> None:
        self._retire(worker)
        if worker.init_failed is not None:
            kind = worker.init_failed
            self.counters["worker_init_failures"] += 1
            if kind == "integrity":
                self.counters["shm_integrity_failures"] += 1
            self._record_event("worker_init_failed", state.name,
                               worker=worker.index, detail=kind)
            if kind in ("integrity", "missing"):
                self._reexport()
            # An init failure never counts against the chunk.
            if worker.task is not None:
                task, worker.task = worker.task, None
                state.pending.appendleft(task)
        elif worker.task is not None:
            self.counters["worker_crashes"] += 1
            self._record_event("worker_crashed", state.name,
                               chunk=worker.task.chunk_index,
                               worker=worker.index)
            self._requeue_or_quarantine(state, worker, "crash")
        else:
            # Idle death: an injected slow-exit or a crash between tasks.
            self.counters["worker_slow_exits"] += 1
            self._record_event("worker_exited_idle", state.name,
                               worker=worker.index)
        if self._try_respawn(worker.index) is None and not self._workers:
            self._degrade("restart_cap", state.name)

    def _handle_hang(self, state: _QueryRun, worker: _Worker) -> None:
        self.counters["worker_hangs"] += 1
        self.counters["heartbeat_misses"] += 1
        self._record_event("worker_hung", state.name,
                           chunk=(worker.task.chunk_index
                                  if worker.task else None),
                           worker=worker.index)
        self._retire(worker)
        self._requeue_or_quarantine(state, worker, "hang")
        if self._try_respawn(worker.index) is None and not self._workers:
            self._degrade("restart_cap", state.name)

    def _drain_messages(self, state: _QueryRun, worker: _Worker) -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                msg = worker.conn.recv()
            except (EOFError, OSError):
                return  # death is handled via the process sentinel
            kind = msg[0]
            if kind == "init":
                if msg[2]:
                    worker.ready = True
                else:
                    worker.init_failed = msg[3] or "error"
            elif kind == "hb":
                worker.last_beat = monotonic()
            elif kind == "ok":
                worker.last_beat = monotonic()
                if worker.task_id == msg[1]:
                    worker.task, worker.task_id = None, None
                    if state.failure is None:
                        state.done.append(msg[2])
            elif kind == "err":
                if worker.task_id == msg[1]:
                    worker.task, worker.task_id = None, None
                    if state.failure is None:
                        state.failure = msg[2]

    def _pump(self, state: _QueryRun) -> None:
        """One wait-and-handle round of the scheduler event loop."""
        busy = [w for w in self._workers if w.task is not None]
        timeout = None
        if self.heartbeat_seconds is not None and busy:
            deadline = min(w.last_beat for w in busy) + self.heartbeat_seconds
            timeout = max(deadline - monotonic(), 0.0) + 0.02
        waitables = {w.conn: w for w in self._workers}
        sentinels = {w.process.sentinel: w for w in self._workers}
        ready = mp_connection.wait(
            list(waitables) + list(sentinels), timeout)
        for obj in ready:
            worker = waitables.get(obj)
            if worker is not None:
                self._drain_messages(state, worker)
        for worker in list(self._workers):
            if not worker.process.is_alive():
                self._drain_messages(state, worker)  # flush last words
                self._handle_death(state, worker)
        if self.heartbeat_seconds is not None:
            now = monotonic()
            for worker in list(self._workers):
                if (worker.task is None
                        or now - worker.last_beat <= self.heartbeat_seconds):
                    continue
                # Second opinion before the kill: heartbeats can starve
                # behind a long GIL-held numpy phase, but such a worker
                # still accrues CPU.  A hung (sleeping) worker accrues
                # none — only that gets the axe.
                cpu = _proc_cpu_seconds(worker.process.pid)
                if cpu is not None and cpu > worker.last_cpu + 0.01:
                    worker.last_cpu = cpu
                    worker.last_beat = now
                    self.counters["hang_cpu_grants"] += 1
                    continue
                self._handle_hang(state, worker)

    def _run_pooled(self, name: str, pipe, tasks: List[_ChunkTask]):
        """Schedule one query's chunks across the (healing) workers."""
        state = _QueryRun(name, pipe, tasks)
        while True:
            busy = [w for w in self._workers if w.task is not None]
            if not state.pending and not busy:
                break
            if self.degraded is not None and state.failure is None:
                while state.pending:
                    task = state.pending.popleft()
                    self.counters["degraded_chunks"] += 1
                    self._run_inproc(state, task)
                if not busy:
                    break
            elif state.failure is not None:
                state.pending.clear()
                if not busy:
                    break
            else:
                for worker in self._workers:
                    if not state.pending:
                        break
                    if worker.task is None:
                        self._dispatch(worker, state,
                                       state.pending.popleft())
                if state.pending and not self._workers:
                    if self._try_respawn(0) is None:
                        self._degrade("restart_cap", name)
                    continue
            if (any(w.task is not None for w in self._workers)
                    or (state.pending and self._workers)):
                # Also pump when dispatch failed on dead-but-unreaped
                # workers: their sentinels wake the wait immediately.
                self._pump(state)
        if state.failure is not None:
            raise _PoolTaskError(state.failure)
        return state.done

    # -- public API ------------------------------------------------------

    def warm(self, timeout: float = 60.0) -> None:
        """Wait for every worker's attach-and-init ack before timing."""
        state = _QueryRun("<warm>", None, [])
        deadline = monotonic() + timeout
        while (any(not w.ready for w in self._workers)
               and monotonic() < deadline):
            self._pump(state)

    def _run_fallback(self, query):
        from repro.engine.execution.functional import execute_functional

        self.fallbacks += 1
        return execute_functional(query.instantiate(), self.database)

    def run_query(self, name: str):
        """Execute one workload query; returns its root OperatorResult.

        The first call of a name builds its pipeline (or remembers the
        decline); every later one costs ranges, dispatch and merge."""
        from repro.engine import morsel
        from repro.engine.execution.functional import execute_operators

        query = self._queries[name]
        if name not in self._pipelines:
            try:
                self._pipelines[name] = morsel.build(query.instantiate(),
                                                     self.database)
            except morsel.Decline:
                self._pipelines[name] = None
        pipe = self._pipelines[name]
        if pipe is None or not pipe.supports_partials:
            return self._run_fallback(query)
        if pipe.compensated and self._float_gate.get(name) is False:
            return self._run_fallback(query)
        ranges = pipe.ranges()
        per_chunk = -(-len(ranges) // self.jobs)
        groups = [ranges[i:i + per_chunk]
                  for i in range(0, len(ranges), per_chunk)]
        tasks = []
        for chunk_index, group in enumerate(groups):
            directive = None
            if self._injector is not None:
                # Planned in fixed chunk order (never dispatch order) so
                # the schedule digest is a pure function of the seed.
                directive = self._injector.plan_chunk(name, chunk_index)
            tasks.append(_ChunkTask(chunk_index, group[0][0],
                                    group[-1][1], directive))
        if self.degraded is not None:
            self.counters["degraded_chunks"] += len(tasks)
            partials = [pipe.run_chunk(task.start, task.stop)
                        for task in tasks]
        else:
            try:
                partials = self._run_pooled(name, pipe, tasks)
            except _PoolTaskError:
                # A worker *reported* an error (declined mid-run or an
                # engine bug): the parent recomputes alone.
                return self._run_fallback(query)
        result = pipe.merge(sorted(partials, key=lambda p: p.index))
        if pipe.compensated and name not in self._float_gate:
            # Compensated float partials merge in chunk order, which can
            # round differently from the one-pass reference.  Gate on
            # byte identity once per query: divergence pins the query to
            # the fallback path forever after.
            reference = execute_operators(query.instantiate(),
                                          self.database)
            identical = (
                result.payload.row_tuples()
                == reference.payload.row_tuples()
                and result.actual_rows == reference.actual_rows
                and result.nominal_rows == reference.nominal_rows
            )
            self._float_gate[name] = identical
            if not identical:
                self.counters["float_gate_declines"] += 1
                morsel.decline_reasons["float_partial_divergence"] += 1
                return reference
        return result

    def run_queries(self, names: Optional[Sequence[str]] = None):
        """Execute queries (all by default); name -> OperatorResult."""
        if names is None:
            names = list(self._queries)
        return {name: self.run_query(name) for name in names}

    # -- accounting ------------------------------------------------------

    @property
    def process_fault_digest(self) -> Optional[str]:
        """Schedule digest of planned process faults (None = no chaos)."""
        if self._injector is None:
            return None
        return self._injector.schedule_digest()

    def process_fault_summary(self) -> Dict[str, int]:
        if self._injector is None:
            return {}
        return self._injector.summary()

    def process_fault_report(self) -> Dict[str, Dict[str, int]]:
        """Per-query planned-fault report (query -> class -> count)."""
        if self._injector is None:
            return {}
        return self._injector.report()

    def record_metrics(self, metrics) -> None:
        """Book the pool's self-healing counters — whatever it counted,
        by the names it counted under — and the planned process faults
        (per class, under their schedule digest) into a collector."""
        for name, amount in self.counters.items():
            metrics.count(name, amount)
        metrics.count("pool_fallbacks", self.fallbacks)
        metrics.count("shm_orphans_reaped", self.orphans_reaped)
        for fault, planned in self.process_fault_summary().items():
            metrics.count("process_faults", planned, fault=fault,
                          schedule=self.process_fault_digest)

    def close(self) -> None:
        """Shut workers down, unlink the export, and leak-check."""
        for worker in self._workers:
            try:
                worker.task_w.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.close_pipes()
        self._workers = []
        self._pipelines.clear()
        shm.invalidate(self.database)
        leaked = shm.leaked_segments()
        if leaked:
            raise RuntimeError(
                "shm segments leaked past pool close: {}".format(leaked))

    def __enter__(self) -> "MorselPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _pool_context():
    """Fork when available (zero-cost attach), spawn otherwise."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
