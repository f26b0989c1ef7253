"""Unit tests for the device column cache."""

import pytest

from repro.hardware import DeviceCache
from repro.metrics import MetricsCollector


def make_cache(capacity=100, policy="lru", clock=None):
    return DeviceCache(capacity, policy=policy, clock=clock)


def test_admit_and_contains():
    cache = make_cache()
    assert cache.admit("a", 40)
    assert "a" in cache
    assert cache.used == 40
    assert cache.available == 60


def test_admit_too_large_column_fails():
    cache = make_cache(capacity=100)
    assert not cache.admit("huge", 101)
    assert "huge" not in cache
    assert cache.used == 0


def test_admit_existing_key_is_a_touch():
    time = [0.0]
    cache = make_cache(clock=lambda: time[0])
    cache.admit("a", 40)
    time[0] = 5.0
    assert cache.admit("a", 40)
    assert cache.used == 40
    assert cache.entry("a").last_access == 5.0


def test_lru_eviction_order():
    time = [0.0]
    cache = make_cache(capacity=100, policy="lru", clock=lambda: time[0])
    cache.admit("a", 40)
    time[0] = 1.0
    cache.admit("b", 40)
    time[0] = 2.0
    cache.touch("a")  # a is now more recent than b
    time[0] = 3.0
    assert cache.admit("c", 40)  # evicts b (least recently used)
    assert "b" not in cache
    assert "a" in cache and "c" in cache


def test_lfu_eviction_order():
    time = [0.0]
    cache = make_cache(capacity=100, policy="lfu", clock=lambda: time[0])
    cache.admit("a", 40)
    cache.admit("b", 40)
    for _ in range(5):
        cache.touch("b")
    time[0] = 1.0
    assert cache.admit("c", 40)  # evicts a (least frequently used)
    assert "a" not in cache
    assert "b" in cache and "c" in cache


def test_pinned_entries_never_evicted():
    cache = make_cache(capacity=100)
    cache.admit("a", 60, pinned=True)
    assert not cache.admit("b", 60)  # cannot evict the pinned entry
    assert "a" in cache
    cache.unpin("a")
    assert cache.admit("b", 60)
    assert "a" not in cache


def test_in_use_entries_never_evicted():
    cache = make_cache(capacity=100)
    cache.admit("a", 60)
    cache.acquire("a")
    assert not cache.admit("b", 60)
    cache.release("a")
    assert cache.admit("b", 60)


def test_release_without_acquire_is_error():
    cache = make_cache()
    cache.admit("a", 10)
    with pytest.raises(RuntimeError):
        cache.release("a")


def test_release_after_forced_eviction_is_tolerated():
    cache = make_cache(capacity=100)
    cache.admit("a", 10)
    cache.acquire("a")
    cache.release("a")
    cache.evict("a")
    cache.release("a")  # deferred cleanup path: no error


def test_multiple_evictions_to_fit_one_column():
    cache = make_cache(capacity=100)
    cache.admit("a", 30)
    cache.admit("b", 30)
    cache.admit("c", 30)
    assert cache.admit("big", 90)
    assert cache.keys == ["big"]
    assert cache.used == 90


def test_used_never_exceeds_capacity():
    cache = make_cache(capacity=100)
    for i in range(20):
        cache.admit("col{}".format(i), 33)
        assert cache.used <= cache.capacity


def test_metrics_hits_misses_evictions():
    metrics = MetricsCollector()
    cache = DeviceCache(100, metrics=metrics)
    cache.admit("a", 60)
    cache.touch("a")
    cache.record_miss()
    cache.admit("b", 60)  # evicts a
    assert metrics.cache_hits == 1
    assert metrics.cache_misses == 1
    assert metrics.cache_evictions == 1
    assert metrics.cache_hit_rate == 0.5


def test_invalid_policy_rejected():
    with pytest.raises(ValueError):
        DeviceCache(100, policy="fifo")
