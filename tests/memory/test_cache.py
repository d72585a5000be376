"""Unit tests for the set-associative cache."""

import pytest

from repro.memory.cache import Cache, CacheParams


def small_cache(ways: int = 2, sets: int = 4) -> Cache:
    return Cache(CacheParams("T", size_bytes=64 * ways * sets, line_bytes=64,
                             ways=ways, latency=1))


def test_miss_then_hit():
    cache = small_cache()
    hit, evicted = cache.access(0x100)
    assert not hit and evicted is None
    hit, evicted = cache.access(0x100)
    assert hit and evicted is None
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_same_line_different_offsets_hit():
    cache = small_cache()
    cache.access(0x100)
    hit, _ = cache.access(0x13F)      # last byte of the same 64B line
    assert hit
    hit, _ = cache.access(0x140)      # next line
    assert not hit


def test_lru_eviction_order():
    cache = small_cache(ways=2, sets=1)
    cache.access(0x000)
    cache.access(0x040)
    cache.access(0x000)               # refresh line 0
    hit, evicted = cache.access(0x080)
    assert not hit
    assert evicted == 0x040           # line 0x40 was least recently used


def test_set_indexing_avoids_cross_set_eviction():
    cache = small_cache(ways=1, sets=4)
    lines = [0x000, 0x040, 0x080, 0x0C0]
    for line in lines:
        _, evicted = cache.access(line)
        assert evicted is None        # each maps to its own set


def test_probe_does_not_disturb_lru():
    cache = small_cache(ways=2, sets=1)
    cache.access(0x000)
    cache.access(0x040)
    cache.probe(0x000)                # must NOT refresh
    _, evicted = cache.access(0x080)
    assert evicted == 0x000


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheParams("bad", size_bytes=64, line_bytes=64, ways=2,
                    latency=1).num_sets


def test_probe_on_a_never_filled_set_allocates_nothing():
    cache = small_cache()
    assert not cache.probe(0x100)
    assert cache._sets == [None] * 4
