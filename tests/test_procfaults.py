"""Process-fault injection, the self-healing MorselPool, and shared-
memory integrity.

Covers the crash-tolerance tentpole end to end:

* deterministic process-fault planning: the schedule (and its digest)
  is a pure function of the seed, and a disabled config plans nothing;
* shm hardening: stale-epoch manifests and corrupted column bytes are
  rejected at attach, dead creators' segments are reaped, and the
  leak registry notices segments that outlive their export;
* the pool survives seeded crash/hang/slowexit/unlink-race chaos with
  byte-identical results, quarantines deterministic poison chunks,
  degrades to sequential at the restart cap, and re-exports after an
  unlink race — all without leaking a segment;
* liveness is signalled by time: a short chunk sends one message, its
  result, and beats alone keep a chunk alive far past the deadline;
* compensated float sum/avg partials merge byte-identically or the
  query is pinned to the fallback by the runtime identity gate;
* composition (satellite): circuit-breaker half-open probes and the
  query lifecycle (admission, deadlines) keep byte identity with the
  fused morsel path while a chaos pool runs on the same database.
"""

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from repro.engine import caches, morsel
from repro.engine.execution import (
    LifecycleConfig,
    execute_functional,
    execute_operators,
)
from repro.faults import (
    PROCESS_FAULT_CLASSES,
    FaultConfig,
    ProcessFaultDirective,
    ProcessFaultInjector,
)
from repro.harness import experiments as E
from repro.harness.parallel import MorselPool
from repro.harness.runner import run_workload
from repro.metrics import MetricsCollector
from repro.storage import ColumnType, Database, shm
from repro.workloads import ssb, tpch
from repro.workloads.base import sql_workload

from tests.conftest import morsel_rows, operator_path

FORK_OK = "fork" in multiprocessing.get_all_start_methods()

pool_ready = pytest.mark.skipif(
    not (FORK_OK and shm.available()),
    reason="needs fork start method and shared memory",
)


@pytest.fixture(autouse=True)
def _fresh_engine_state(plan_cache_off):
    morsel.reset_stats()


def _reference(database, queries, execute=execute_operators):
    return {
        query.name: execute(
            query.instantiate(), database).payload.row_tuples()
        for query in queries
    }


def _pool_rows(results):
    return {name: result.payload.row_tuples()
            for name, result in results.items()}


# ---------------------------------------------------------------------------
# FaultConfig: the process-fault class
# ---------------------------------------------------------------------------

class TestProcessFaultConfig:
    def test_parse_process_spec(self):
        config = FaultConfig.parse(
            "crash=0.1,hang=0.05,slowexit=0.02,unlinkrace=0.01,"
            "crash_repeats=2,seed=9")
        assert config.crash == 0.1
        assert config.hang == 0.05
        assert config.slowexit == 0.02
        assert config.unlinkrace == 0.01
        assert config.crash_repeats == 2
        assert config.process_enabled

    def test_hardware_spec_does_not_enable_process_faults(self):
        config = FaultConfig.uniform(0.3)
        assert not config.process_enabled
        assert all(getattr(config, name) == 0.0
                   for name in PROCESS_FAULT_CLASSES)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(crash=1.5)
        with pytest.raises(ValueError):
            FaultConfig(crash_repeats=0)
        with pytest.raises(ValueError):
            FaultConfig(hang_seconds=-1.0)


# ---------------------------------------------------------------------------
# ProcessFaultInjector: planned, seeded, digestible
# ---------------------------------------------------------------------------

def _plan_all(injector, queries=("q1", "q2", "q3"), chunks=8):
    plans = []
    for name in queries:
        for index in range(chunks):
            plans.append((name, index, injector.plan_chunk(name, index)))
    return plans


class TestProcessFaultInjector:
    def test_same_seed_same_schedule(self):
        config = FaultConfig(crash=0.2, hang=0.1, slowexit=0.1,
                             unlinkrace=0.1, seed=11)
        a, b = ProcessFaultInjector(config), ProcessFaultInjector(config)
        assert _plan_all(a) == _plan_all(b)
        assert a.schedule_digest() == b.schedule_digest()
        assert a.report() == b.report()
        assert any(directive for _, _, directive in _plan_all(
            ProcessFaultInjector(config)))

    def test_seed_changes_the_schedule(self):
        base = FaultConfig(crash=0.3, hang=0.2, seed=1)
        other = dataclasses.replace(base, seed=2)
        a, b = ProcessFaultInjector(base), ProcessFaultInjector(other)
        _plan_all(a), _plan_all(b)
        assert a.schedule_digest() != b.schedule_digest()

    def test_zero_rate_class_never_fires(self):
        config = FaultConfig(crash=1.0, seed=3)
        injector = ProcessFaultInjector(config)
        plans = _plan_all(injector)
        assert all(d is not None and d.kind == "crash"
                   for _, _, d in plans)
        assert injector.summary() == {"crash": len(plans)}

    def test_crash_directive_carries_repeats(self):
        config = FaultConfig(crash=1.0, crash_repeats=3, seed=5)
        directive = ProcessFaultInjector(config).plan_chunk("q", 0)
        assert directive == ProcessFaultDirective("crash", repeats=3)
        decremented = directive.decremented()
        assert decremented.repeats == 2
        assert directive.repeats == 3  # frozen original untouched


# ---------------------------------------------------------------------------
# shm integrity: headers, checksums, orphans, leaks
# ---------------------------------------------------------------------------

def _tiny_db(name="shmtest"):
    db = Database(name)
    table = db.create_table("t", nominal_rows=64)
    table.add_column("k", ColumnType.INT32, np.arange(64, dtype=np.int32))
    return db


@pytest.mark.skipif(not shm.available(), reason="needs shared memory")
class TestShmIntegrity:
    def test_stale_epoch_manifest_rejected(self):
        db = _tiny_db()
        manifest = shm.export_database(db)
        try:
            stale = dataclasses.replace(manifest, epoch=manifest.epoch + 7)
            with pytest.raises(shm.ShmIntegrityError):
                shm.attach_database(stale)
        finally:
            shm.invalidate(db)

    def test_corrupted_column_bytes_rejected(self):
        db = _tiny_db()
        manifest = shm.export_database(db)
        try:
            spec = manifest.columns[0]
            path = os.path.join("/dev/shm", manifest.shm_name.lstrip("/"))
            before = shm.stats["integrity_failures"]
            with open(path, "r+b") as handle:
                handle.seek(spec.offset)
                handle.write(b"\xff\xff\xff\xff")
            with pytest.raises(shm.ShmIntegrityError):
                shm.attach_database(manifest)
            assert shm.stats["integrity_failures"] == before + 1
        finally:
            shm.invalidate(db)

    def test_clean_attach_verifies_once(self):
        db = _tiny_db()
        manifest = shm.export_database(db)
        try:
            before = shm.stats["verified_columns"]
            attached = shm.attach_database(manifest)
            assert attached.table("t").column("k").values.tolist() == list(
                range(64))
            # second attach of the same (name, epoch) skips verification
            shm.attach_database(manifest)
            assert shm.stats["verified_columns"] == before + len(
                manifest.columns)
        finally:
            shm.detach_all()
            shm.invalidate(db)

    def test_reap_orphans_unlinks_dead_creators(self):
        pid = 99999
        while True:  # find a pid that definitely is not running
            try:
                os.kill(pid, 0)
                pid += 7
            except ProcessLookupError:
                break
            except PermissionError:
                pid += 7
        name = "repro-{}-1-deadbeef".format(pid)
        path = os.path.join("/dev/shm", name)
        with open(path, "wb") as handle:
            handle.write(b"\x00" * 64)
        try:
            assert shm.reap_orphans() >= 1
            assert not os.path.exists(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)

    def test_reap_skips_live_creators(self):
        db = _tiny_db()
        manifest = shm.export_database(db)
        try:
            shm.reap_orphans()
            assert shm.segment_exists(manifest.shm_name)
        finally:
            shm.invalidate(db)

    def test_leaked_segments_registry(self):
        db = _tiny_db()
        manifest = shm.export_database(db)
        assert shm.leaked_segments() == []  # live exports are not leaks
        shm.invalidate(db)
        assert shm.leaked_segments() == []
        assert not shm.segment_exists(manifest.shm_name)


# ---------------------------------------------------------------------------
# MorselPool: chaos soak, quarantine, degrade, determinism
# ---------------------------------------------------------------------------

CHAOS = FaultConfig(crash=0.15, hang=0.08, slowexit=0.05, unlinkrace=0.05,
                    hang_seconds=5.0, seed=2)


@pool_ready
class TestPoolSelfHealing:
    def test_zero_overhead_when_disabled(self, ssb_db):
        queries = ssb.workload(ssb_db)
        reference = _reference(ssb_db, queries)
        with MorselPool(ssb_db, queries, jobs=2) as pool:
            rows = _pool_rows(pool.run_queries())
            assert rows == reference
            assert pool.process_fault_digest is None
            assert pool.process_fault_summary() == {}
            assert pool.fallbacks == 0
            for key in ("worker_crashes", "worker_hangs", "chunk_requeues",
                        "chunk_quarantines", "pool_degrades"):
                assert pool.counters[key] == 0

    def test_chaos_soak_identical_and_self_healing(self, ssb_db):
        queries = ssb.workload(ssb_db)
        reference = _reference(ssb_db, queries)
        with MorselPool(ssb_db, queries, jobs=2, faults=CHAOS,
                        heartbeat_seconds=0.4) as pool:
            pool.warm()
            rows = _pool_rows(pool.run_queries())
            summary = pool.process_fault_summary()
            assert rows == reference
            assert summary  # the seed planned real chaos
            assert pool.fallbacks == 0
            assert pool.degraded is None
            assert pool.counters["worker_crashes"] >= (
                summary.get("crash", 0) + summary.get("unlinkrace", 0))
            assert pool.counters["worker_hangs"] == summary.get("hang", 0)
            assert pool.counters["chunk_requeues"] >= (
                summary.get("crash", 0) + summary.get("hang", 0))
            if summary.get("unlinkrace"):
                assert pool.counters["shm_reexports"] >= 1
            assert pool.counters["worker_restarts"] >= 1
        assert shm.leaked_segments() == []

    @pytest.mark.parametrize("name", ["ssb", "tpch"])
    def test_recovery_costs_one_respawn_and_one_requeue_per_kill(
            self, name):
        """The soak's recovery contract, on counts (``repro pool
        --faults ...`` prints them): two batches through one pool with
        10% of the chunks faulted stay byte-identical, each planned
        hang costs one watchdog kill, each planned death one worker,
        each kill one requeue and one respawn, and nothing falls back,
        degrades, is quarantined or leaks.  What the recovery costs in
        wall-clock seconds is not a test's business."""
        module, seed, data_scale = {"ssb": (ssb, 42, 0.05),
                                    "tpch": (tpch, 24, 0.1)}[name]
        database = module.generate(scale_factor=1.0, data_scale=data_scale,
                                   seed=seed)
        queries = module.workload(database)
        reference = _reference(database, queries)
        faults = FaultConfig(crash=0.05, hang=0.02, slowexit=0.02,
                             unlinkrace=0.01, hang_seconds=5.0, seed=82)
        # morsels small enough, and a deadline long enough, that a busy
        # one-core box cannot starve a healthy worker into a false hang
        with morsel_rows(8192), \
                MorselPool(database, queries, workload=name, jobs=2,
                           faults=faults, heartbeat_seconds=0.75) as pool:
            pool.warm()
            for _ in range(2):
                assert _pool_rows(pool.run_queries()) == reference
            planned = pool.process_fault_summary()
            counters = pool.counters
            deaths = sum(planned.get(kind, 0)
                         for kind in ("crash", "unlinkrace", "slowexit"))
            assert planned.get("crash", 0) >= 1 and planned.get("hang", 0) >= 1
            assert counters["worker_hangs"] == planned["hang"]
            # a death is a crash if a chunk was outstanding, else an
            # idle exit (only a planned slowexit can be either)
            assert (counters["worker_crashes"]
                    + counters["worker_slow_exits"]) == deaths
            assert counters["chunk_requeues"] == (
                counters["worker_crashes"] + counters["worker_hangs"])
            assert counters["chunk_quarantines"] == 0
            # an unlink race also fails the init of whoever attaches
            # next, which re-exports the database and respawns again
            assert counters["worker_init_failures"] >= planned.get(
                "unlinkrace", 0)
            assert counters["shm_reexports"] == (
                counters["worker_init_failures"])
            assert counters["worker_restarts"] == (
                counters["worker_crashes"] + counters["worker_hangs"]
                + counters["worker_slow_exits"]
                + counters["worker_init_failures"])
            assert pool.fallbacks == 0
            assert pool.degraded is None
        assert shm.leaked_segments() == []

    def test_chaos_schedule_is_deterministic(self, ssb_db):
        queries = ssb.workload(ssb_db)

        def soak():
            with MorselPool(ssb_db, queries, jobs=2, faults=CHAOS,
                            heartbeat_seconds=0.4) as pool:
                rows = _pool_rows(pool.run_queries())
                return (rows, pool.process_fault_digest,
                        pool.process_fault_report())

        rows_a, digest_a, report_a = soak()
        rows_b, digest_b, report_b = soak()
        assert digest_a == digest_b
        assert report_a == report_b
        assert rows_a == rows_b

    def test_repeat_crasher_is_quarantined(self, ssb_db):
        queries = ssb.workload(ssb_db)
        reference = _reference(ssb_db, queries)
        faults = FaultConfig(crash=0.2, crash_repeats=2, seed=3)
        with MorselPool(ssb_db, queries, jobs=2, faults=faults) as pool:
            rows = _pool_rows(pool.run_queries())
            summary = pool.process_fault_summary()
            assert summary.get("crash", 0) >= 1
            assert rows == reference
            assert pool.counters["chunk_quarantines"] == summary["crash"]
            assert pool.fallbacks == 0

    def test_restart_cap_degrades_to_sequential(self, ssb_db):
        queries = ssb.workload(ssb_db)
        reference = _reference(ssb_db, queries)
        faults = FaultConfig(crash=0.6, seed=1)
        with MorselPool(ssb_db, queries, jobs=2, faults=faults,
                        max_restarts=1) as pool:
            rows = _pool_rows(pool.run_queries())
            assert rows == reference
            assert pool.degraded == "restart_cap"
            assert pool.counters["pool_degrades"] == 1
            assert pool.counters["degraded_chunks"] > 0
            assert pool.fallbacks == 0

    def test_unlink_race_triggers_reexport(self, ssb_db):
        queries = ssb.workload(ssb_db)
        reference = _reference(ssb_db, queries)
        faults = FaultConfig(unlinkrace=0.25, seed=10)
        with MorselPool(ssb_db, queries, jobs=2, faults=faults) as pool:
            rows = _pool_rows(pool.run_queries())
            summary = pool.process_fault_summary()
            assert summary.get("unlinkrace", 0) >= 1
            assert rows == reference
            assert pool.counters["shm_reexports"] >= 1
            assert pool.counters["worker_init_failures"] >= 1
        assert shm.leaked_segments() == []

    def test_a_corrupted_export_is_counted_and_reexported(self, ssb_db):
        """Column bytes that rot between the export and the pool's
        start fail the worker's checksum at attach: the pool books an
        integrity failure, re-exports once, and answers as sequential
        execution does."""
        queries = ssb.workload(ssb_db)
        reference = _reference(ssb_db, queries, execute_functional)
        shm.invalidate(ssb_db)
        manifest = shm.export_database(ssb_db)  # memoised: the pool's
        spec = manifest.columns[0]
        path = os.path.join("/dev/shm", manifest.shm_name.lstrip("/"))
        with open(path, "r+b") as handle:
            handle.seek(spec.offset)
            flipped = handle.read(1)[0] ^ 0xFF
            handle.seek(spec.offset)
            handle.write(bytes([flipped]))
        with MorselPool(ssb_db, queries, jobs=1) as pool:
            rows = _pool_rows(pool.run_queries())
            metrics = MetricsCollector()
            pool.record_metrics(metrics)
        summary = metrics.pool_summary()
        assert rows == reference
        assert summary["shm_integrity_failures"] >= 1
        assert summary["shm_reexports"] == 1
        assert pool.fallbacks == 0
        assert shm.leaked_segments() == []
        # the event says why, in the worker's own words
        failed = [event["detail"] for event in pool.events
                  if event["event"] == "worker_init_failed"]
        assert failed and all(detail.startswith(
            "integrity: ShmIntegrityError(") for detail in failed)

    def test_a_reexport_keeps_the_segment_a_starting_worker_attaches(
            self, ssb_db):
        """Two workers that fail on one lost segment re-export twice;
        the second re-export must not unlink the segment the worker
        respawned after the first is still attaching, or its init
        fails too, and so on, slot after slot, to the restart cap."""
        queries = ssb.workload(ssb_db)
        with MorselPool(ssb_db, queries, jobs=1) as pool:
            starting = pool._spawn_worker(1)
            pool._workers.append(starting)
            attaching = starting.manifest.shm_name
            pool._reexport()
            assert not starting.ready and shm.segment_exists(attaching)
            pool.warm()  # every worker acks its init ...
            assert starting.ready and starting.init_failed is None
            # ... and the replaced segment goes once none still needs it
            assert not shm.segment_exists(attaching)
            assert pool.counters["shm_reexports"] == 1
        assert shm.leaked_segments() == []

    def test_pool_counters_land_in_metrics(self, ssb_db):
        queries = ssb.workload(ssb_db)
        with MorselPool(ssb_db, queries, jobs=2, faults=CHAOS,
                        heartbeat_seconds=0.4) as pool:
            pool.run_queries()
            metrics = MetricsCollector()
            pool.record_metrics(metrics)
            summary = metrics.pool_summary()
            assert summary["worker_restarts"] == float(
                pool.counters["worker_restarts"])
            assert summary["process_faults_planned"] == float(
                sum(pool.process_fault_summary().values()))
            assert set(metrics.by("process_faults", "schedule")) == {
                pool.process_fault_digest}


# ---------------------------------------------------------------------------
# Liveness by time: what a worker sends, and what the watchdog still sees
# ---------------------------------------------------------------------------

class _CountingConn:
    """A worker's result pipe as the parent reads it, recording the
    kind of every message received."""

    def __init__(self, conn, kinds):
        self._conn = conn
        self._kinds = kinds

    def recv(self):
        message = self._conn.recv()
        self._kinds.append(message[0])
        return message

    def __getattr__(self, name):  # poll / fileno / close
        return getattr(self._conn, name)


@pool_ready
class TestHeartbeatCadence:
    def test_a_short_chunk_sends_only_its_result(self, ssb_db):
        """No watchdog, no faults: nothing reads ``last_beat``, and a
        chunk far shorter than the cadence ships one message — where a
        beat per morsel used to wake the parent ten times per chunk."""
        queries = ssb.workload(ssb_db)
        reference = _reference(ssb_db, queries)
        kinds = []
        with morsel_rows(256):  # forked workers inherit the size
            with MorselPool(ssb_db, queries, jobs=2) as pool:
                pool.warm()
                for worker in pool._workers:
                    worker.conn = _CountingConn(worker.conn, kinds)
                assert _pool_rows(pool.run_queries()) == reference
                assert pool.fallbacks == 0
                morsels = sum(len(pipe.ranges())
                              for pipe in pool._pipelines.values())
        chunks = kinds.count("ok")
        assert chunks == 2 * len(queries) and morsels >= 4 * chunks
        # at most one non-result message per chunk (the 0.5 s thread
        # cadence may land a beat or two in the batch)
        assert len(kinds) - chunks <= chunks, kinds

    def test_beats_alone_keep_a_long_chunk_alive(self):
        """A chunk that outlasts the heartbeat deadline three times over
        finishes unmolested, and on the strength of its beats — the
        watchdog never had to ask the CPU clock for a second opinion."""
        from time import perf_counter

        # the worker beats every heartbeat / 4 = 0.1 s, so a gap has to
        # outlast four beats to count; on a 2-core host, idle or running
        # a second test suite, no gap exceeded 0.13 s
        heartbeat = 0.4
        db = ssb.generate(scale_factor=1.0, data_scale=0.12, seed=17)
        queries = [query for query in ssb.workload(db)
                   if query.name == "Q3.1"]
        reference = _reference(db, queries)
        # 720,000 morsels in the one chunk: its joins are one kernel
        # call, and the chunk lasts by its 25,859 batches of one output
        # row each (2.8-3.1 s, against the 1.2 s the premise needs)
        with morsel_rows(1):
            with MorselPool(db, queries, jobs=1,
                            heartbeat_seconds=heartbeat) as pool:
                pool.warm()
                start = perf_counter()
                rows = _pool_rows(pool.run_queries())
                elapsed = perf_counter() - start
                assert rows == reference
                assert elapsed > 3 * heartbeat  # the premise
                assert pool.counters["worker_hangs"] == 0
                assert pool.counters["hang_cpu_grants"] == 0
                assert pool.fallbacks == 0

    def test_a_large_parent_heap_does_not_silence_the_beats(self):
        """A worker forked from a process holding a large heap inherits
        it.  Were the worker's collector to walk that heap, the
        collection would hold the GIL past the heartbeat deadline and
        the watchdog would have to ask the CPU clock for a second
        opinion (a ``hang_cpu_grants``).  The worker freezes what it
        inherits, so its collections walk only its own objects."""
        import gc

        db = ssb.generate(scale_factor=1.0, data_scale=0.01, seed=17)
        queries = [query for query in ssb.workload(db)
                   if query.name == "Q2.1"]
        reference = _reference(db, queries)
        thresholds = gc.get_threshold()
        # two million container objects, still young at the fork (built
        # with the collector paused, after a full collection), and a
        # middle generation collected every third young collection: the
        # worker's first middle collection, during its chunk, would
        # walk all of them (0.3 s on a 2-core host)
        gc.collect()
        gc.disable()
        try:
            heap = [(i, []) for i in range(1_000_000)]
        finally:
            gc.enable()
        gc.set_threshold(thresholds[0], 3, thresholds[2])
        try:
            with morsel_rows(1):
                with MorselPool(db, queries, jobs=1,
                                heartbeat_seconds=0.2) as pool:
                    pool.warm()
                    assert _pool_rows(pool.run_queries()) == reference
                    assert pool.counters["worker_hangs"] == 0
                    assert pool.counters["hang_cpu_grants"] == 0
        finally:
            gc.set_threshold(*thresholds)
        assert len(heap) == 1_000_000


# ---------------------------------------------------------------------------
# Compensated float partials: byte identity or pinned fallback
# ---------------------------------------------------------------------------

def _float_db(values, name="floats"):
    values = np.asarray(values, dtype=np.float64)
    db = Database(name)
    table = db.create_table("sales", nominal_rows=len(values))
    table.add_column("skey", ColumnType.INT32,
                     np.ones(len(values), dtype=np.int32))
    table.add_column("amount", ColumnType.FLOAT64, values)
    return db


FLOAT_SQL = "select skey, sum(amount), avg(amount) from sales group by skey"


class TestCompensatedFloats:
    def test_sequential_fused_float_sum_is_identical(self):
        rng = np.random.default_rng(17)
        db = _float_db(rng.normal(size=4096) * 1e6)
        queries = sql_workload(db, [("f1", FLOAT_SQL)])
        reference = _reference(db, queries)
        with morsel_rows(512):
            fused = _reference(db, queries, execute_functional)
        assert fused == reference
        assert morsel.snapshot_stats()["fused_queries"] == 1
        assert morsel.decline_reasons.get("float_partial_divergence", 0) == 0

    @pool_ready
    def test_pool_float_merge_passes_gate_on_exact_values(self):
        # integer-valued floats: every partial order sums exactly
        db = _float_db(np.arange(1, 2049, dtype=np.float64))
        queries = sql_workload(db, [("f1", FLOAT_SQL)])
        reference = _reference(db, queries)
        with morsel_rows(256), \
                MorselPool(db, queries, workload="sql", jobs=2) as pool:
            rows = _pool_rows(pool.run_queries())
            assert rows == reference
            assert pool.counters["float_gate_declines"] == 0
            assert pool.fallbacks == 0

    @pool_ready
    def test_pool_float_divergence_pins_query_to_fallback(self):
        # chunk-order merge rounds differently from the one-pass
        # reference: the gate must catch it and return the reference
        db = _float_db([1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1e16])
        queries = sql_workload(db, [("f1", FLOAT_SQL)])
        reference = _reference(db, queries)
        with morsel_rows(4), \
                MorselPool(db, queries, workload="sql", jobs=2) as pool:
            first = pool.run_query("f1").payload.row_tuples()
            assert first == reference["f1"]
            if pool.counters["float_gate_declines"]:
                assert morsel.decline_reasons[
                    "float_partial_divergence"] >= 1
                before = pool.fallbacks
                again = pool.run_query("f1").payload.row_tuples()
                assert again == reference["f1"]
                assert pool.fallbacks == before + 1  # pinned


# ---------------------------------------------------------------------------
# Composition: breakers, lifecycle, and chaos pools together (satellite)
# ---------------------------------------------------------------------------

def _sim_run(db, config, **kwargs):
    caches.memo(db, "plan").clear()
    run = run_workload(db, ssb.workload(db), "chopping", config=config,
                       users=2, repetitions=1, collect_results=True,
                       **kwargs)
    rows = {name: tuple(table.row_tuples())
            for name, table in run.results.items()}
    return run, rows


class TestFaultLayerComposition:
    def test_breaker_half_open_probes_with_fused_warm_up(self):
        db = E.ssb_database(1)
        spec = FaultConfig.uniform(0.5, seed=3, breaker_threshold=2,
                                   breaker_open_seconds=0.01)
        with operator_path():
            base_run, base_rows = _sim_run(db, E.FULL_CONFIG, faults=spec)
        fused_run, fused_rows = _sim_run(db, E.FULL_CONFIG, faults=spec)
        assert morsel.snapshot_stats()["fused_queries"] == len(ssb.QUERIES)
        assert fused_rows == base_rows
        assert fused_run.fault_digest == base_run.fault_digest
        assert fused_run.seconds == base_run.seconds
        transitions = fused_run.metrics.breaker_transition_counts()
        assert transitions.get("half_open", 0) > 0  # probes really ran

    def test_admission_and_deadlines_with_fused_warm_up(self):
        db = E.ssb_database(1)
        spec = FaultConfig.parse("stall=0.4,seed=7")
        # one query at a time, each watched by a deadline far past the
        # makespan: every operator runs supervised, none is cancelled
        lifecycle = LifecycleConfig(max_inflight=1, deadline_seconds=60.0)
        with operator_path():
            base_run, base_rows = _sim_run(db, E.FULL_CONFIG, faults=spec,
                                           lifecycle=lifecycle)
        fused_run, fused_rows = _sim_run(db, E.FULL_CONFIG, faults=spec,
                                         lifecycle=lifecycle)
        assert morsel.snapshot_stats()["fused_queries"] == len(ssb.QUERIES)
        assert fused_rows == base_rows
        assert fused_run.seconds == base_run.seconds
        assert fused_run.fault_digest == base_run.fault_digest
        assert fused_run.seconds < lifecycle.deadline_seconds
        assert not fused_run.metrics.cancelled_queries
        assert fused_run.metrics.total("admission_waits") > 0
        assert fused_run.metrics.total("admission_waits") == (
            base_run.metrics.total("admission_waits"))

    @pool_ready
    def test_simulation_unaffected_by_live_chaos_pool(self, ssb_db):
        """A chaos pool churning real processes on the same database
        must not perturb the simulated fault/lifecycle layers."""
        db = E.ssb_database(1)
        spec = FaultConfig.uniform(0.05, seed=7)
        with operator_path():
            base_run, base_rows = _sim_run(db, E.FULL_CONFIG, faults=spec)
        queries = ssb.workload(ssb_db)
        reference = _reference(ssb_db, queries)
        with MorselPool(ssb_db, queries, jobs=2, faults=CHAOS,
                        heartbeat_seconds=0.4) as pool:
            pool.warm()
            rows = _pool_rows(pool.run_queries())
            run, sim_rows = _sim_run(db, E.FULL_CONFIG, faults=spec)
            assert rows == reference
            assert pool.fallbacks == 0
        assert sim_rows == base_rows
        assert run.fault_digest == base_run.fault_digest
        assert run.seconds == base_run.seconds
        assert shm.leaked_segments() == []
