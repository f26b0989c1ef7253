"""Unit tests for the data-placement manager (Algorithm 1)."""

import numpy as np
import pytest

from tests.conftest import make_context
from repro.core import DataPlacementManager
from repro.hardware import DeviceCache, SystemConfig
from repro.sim import Environment
from repro.storage import ColumnType, Database


@pytest.fixture()
def stats_db():
    """Five equally sized columns with distinct access counts."""
    db = Database("stats")
    table = db.create_table("t", nominal_rows=100)
    for i, name in enumerate(["c0", "c1", "c2", "c3", "c4"]):
        table.add_column(name, ColumnType.INT32,
                         np.arange(10, dtype=np.int32))
        for _ in range(i + 1):  # c4 is hottest
            db.statistics.record_access("t.{}".format(name), now=float(i))
    return db


def column_bytes(db):
    return db.column("t.c0").nominal_bytes  # 400 bytes each


def test_algorithm1_caches_most_frequent_prefix(stats_db):
    cache = DeviceCache(2 * column_bytes(stats_db))
    manager = DataPlacementManager(stats_db, cache, policy="lfu")
    cached = manager.apply_placement()
    assert cached == ["t.c3", "t.c4"]


def test_algorithm1_respects_budget_exactly(stats_db):
    nbytes = column_bytes(stats_db)
    cache = DeviceCache(3 * nbytes + nbytes // 2)
    manager = DataPlacementManager(stats_db, cache, policy="lfu")
    cached = manager.apply_placement()
    assert len(cached) == 3
    assert cache.used <= cache.capacity


def test_cached_columns_are_pinned(stats_db):
    cache = DeviceCache(2 * column_bytes(stats_db))
    manager = DataPlacementManager(stats_db, cache, policy="lfu")
    manager.apply_placement()
    for key in cache.keys:
        assert cache.entry(key).pinned


def test_placement_update_evicts_stale_entries(stats_db):
    cache = DeviceCache(2 * column_bytes(stats_db))
    manager = DataPlacementManager(stats_db, cache, policy="lfu")
    manager.apply_placement()
    # shift the workload: c0 becomes the hottest column
    for _ in range(50):
        stats_db.statistics.record_access("t.c0", now=100.0)
    cached = manager.apply_placement()
    assert "t.c0" in cached
    assert "t.c3" not in cached


def test_in_use_entries_deferred_not_evicted(stats_db):
    cache = DeviceCache(2 * column_bytes(stats_db))
    manager = DataPlacementManager(stats_db, cache, policy="lfu")
    manager.apply_placement()
    cache.acquire("t.c4")  # a running operator holds the column
    for _ in range(50):
        stats_db.statistics.record_access("t.c0", now=100.0)
    cached = manager.apply_placement()
    # c4 is due for eviction but in use: deferred cleanup keeps it
    assert "t.c4" in cached


def test_lru_policy_uses_recency(stats_db):
    # recency in the fixture: c4 most recent (now=4.0)
    cache = DeviceCache(2 * column_bytes(stats_db))
    manager = DataPlacementManager(stats_db, cache, policy="lru")
    cached = manager.apply_placement()
    assert cached == ["t.c3", "t.c4"]


def test_unknown_policy_rejected(stats_db):
    with pytest.raises(ValueError):
        DataPlacementManager(stats_db, DeviceCache(100), policy="mru")


def test_untouched_columns_never_cached(stats_db):
    table = stats_db.table("t")
    table.add_column("cold", ColumnType.INT32, np.arange(10, dtype=np.int32))
    cache = DeviceCache(100 * column_bytes(stats_db))
    manager = DataPlacementManager(stats_db, cache, policy="lfu")
    cached = manager.apply_placement()
    assert "t.cold" not in cached


def test_stale_statistics_for_dropped_columns_ignored(stats_db):
    stats_db.statistics.record_access("t.ghost_column")
    cache = DeviceCache(10 * column_bytes(stats_db))
    manager = DataPlacementManager(stats_db, cache, policy="lfu")
    cached = manager.apply_placement()  # must not raise
    assert "t.ghost_column" not in cached


# -- multi-GPU partitioning (Sec. 6.3) --------------------------------------


def two_caches(stats_db, columns_each=3):
    nbytes = column_bytes(stats_db)
    return [DeviceCache(columns_each * nbytes),
            DeviceCache(columns_each * nbytes)]


def test_partition_first_fit_clusters_hottest_on_first_device(stats_db):
    manager = DataPlacementManager(stats_db, caches=two_caches(stats_db),
                                   policy="lfu")
    first, second = manager.partition()
    # 400-byte columns are above the 5% replication limit, so they
    # first-fit in rank order: the hottest prefix lands on device 0
    # exactly like the single-device case, device 1 extends it
    assert first == ["t.c4", "t.c3", "t.c2"]
    assert second == ["t.c1", "t.c0"]


def test_partition_replicates_small_columns_everywhere(stats_db):
    nbytes = column_bytes(stats_db)
    # huge caches: every 400-byte column is below 5% of the minimum
    caches = [DeviceCache(100 * nbytes), DeviceCache(100 * nbytes)]
    manager = DataPlacementManager(stats_db, caches=caches, policy="lfu")
    first, second = manager.partition()
    assert first == second  # dimension-sized columns co-locate everywhere


def test_partition_skips_columns_too_big_for_any_device(stats_db):
    import numpy as np

    table = stats_db.table("t")
    table.add_column("wide", ColumnType.INT64,
                     np.arange(10, dtype=np.int64))
    for _ in range(50):  # hottest by far
        stats_db.statistics.record_access("t.wide", now=50.0)
    nbytes = column_bytes(stats_db)
    caches = [DeviceCache(nbytes + nbytes // 2),
              DeviceCache(nbytes + nbytes // 2)]
    manager = DataPlacementManager(stats_db, caches=caches, policy="lfu")
    assignment = manager.partition()
    placed = [key for keys in assignment for key in keys]
    assert "t.wide" not in placed  # 800 B fits in neither 600 B cache
    assert placed  # the smaller columns still fill the devices


def test_partition_ignores_stale_statistics(stats_db):
    stats_db.statistics.record_access("t.ghost_column")
    manager = DataPlacementManager(stats_db, caches=two_caches(stats_db),
                                   policy="lfu")
    placed = [key for keys in manager.partition() for key in keys]
    assert "t.ghost_column" not in placed


# -- placement-driven prefetch ----------------------------------------------


def engine_hardware(stats_db, gpu_count=1):
    from repro.hardware import HardwareSystem
    from repro.metrics import MetricsCollector

    nbytes = column_bytes(stats_db)
    env = Environment()
    config = SystemConfig(
        gpu_count=gpu_count,
        gpu_memory_bytes=5 * nbytes,
        gpu_cache_bytes=3 * nbytes,
        copy_engine=True,
    )
    hardware = HardwareSystem(env, config, MetricsCollector())
    manager = DataPlacementManager(
        stats_db, caches=[device.cache for device in hardware.gpus],
        policy="lfu",
    )
    return env, hardware, manager


def test_prefetcher_requires_the_copy_engine(stats_db):
    from repro.core import PlacementPrefetcher
    from repro.hardware import HardwareSystem
    from repro.metrics import MetricsCollector

    env = Environment()
    hardware = HardwareSystem(env, SystemConfig(), MetricsCollector())
    manager = DataPlacementManager(stats_db, DeviceCache(1000),
                                   policy="lfu")
    with pytest.raises(ValueError):
        PlacementPrefetcher(hardware, manager)


def test_prefetcher_fills_idle_window_with_ranked_columns(stats_db):
    from repro.core import PlacementPrefetcher

    env, hardware, manager = engine_hardware(stats_db)
    PlacementPrefetcher(hardware, manager, depth=2).start()
    env.run()
    cache = hardware.gpu_cache
    engine = hardware.bus
    # the two hottest uncached columns arrived in the idle window
    assert "t.c4" in cache and "t.c3" in cache
    assert "t.c2" not in cache  # depth bounds each window
    assert engine.was_prefetched("gpu", "t.c4")
    metrics = hardware.metrics
    assert metrics.prefetch_transfers == 2
    assert metrics.prefetch_bytes == 2 * column_bytes(stats_db)
    assert env.now > 0  # the copies took simulated wire time


def test_prefetched_entries_are_unpinned_and_evictable(stats_db):
    from repro.core import PlacementPrefetcher

    env, hardware, manager = engine_hardware(stats_db)
    PlacementPrefetcher(hardware, manager, depth=2).start()
    env.run()
    cache = hardware.gpu_cache
    assert not cache.entry("t.c4").pinned
    cache.evict("t.c4")  # ranking was wrong: ages out normally
    assert "t.c4" not in cache


def test_prefetcher_skips_faulted_columns_and_terminates(stats_db):
    from repro.core import PlacementPrefetcher
    from repro.faults import FaultConfig, FaultInjector

    env, hardware, manager = engine_hardware(stats_db)
    hardware.install_faults(FaultInjector(
        FaultConfig.parse("pcie=1,seed=3"), clock=lambda: env.now,
    ))
    PlacementPrefetcher(hardware, manager, depth=2).start()
    env.run()  # must terminate: failing keys are skipped, not retried
    assert len(hardware.gpu_cache.keys) == 0
    assert hardware.metrics.prefetch_transfers == 0


def test_prefetcher_refills_after_device_reset_with_pinned_entries(stats_db):
    from repro.core import PlacementPrefetcher

    env, hardware, manager = engine_hardware(stats_db)
    cache = hardware.gpu_cache
    nbytes = column_bytes(stats_db)
    # a pinned entry referenced by a running operator...
    cache.admit("t.c0", nbytes, pinned=True)
    cache.acquire("t.c0")
    # ...survives a device reset as a doomed entry (deferred eviction)
    cache.reset()
    assert "t.c0" in cache
    PlacementPrefetcher(hardware, manager, depth=2).start()
    env.run()
    # the prefetcher refilled the flushed cache around the doomed entry
    assert "t.c4" in cache and "t.c3" in cache
    # the operator finishing releases (and thereby evicts) the doomed
    # entry; prefetched content is untouched
    cache.release("t.c0")
    assert "t.c0" not in cache
    assert "t.c4" in cache and "t.c3" in cache


def test_prefetcher_spawns_one_process_per_device(stats_db):
    from repro.core import PlacementPrefetcher

    env, hardware, manager = engine_hardware(stats_db, gpu_count=2)
    PlacementPrefetcher(hardware, manager, depth=3).start()
    env.run()
    first, second = manager.partition()
    for key in first[:3]:
        assert key in hardware.gpus[0].cache
    for key in second[:3]:
        assert key in hardware.gpus[1].cache
