"""Unit tests for the three-level hierarchy and MSHRs."""

from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy


def test_cold_miss_goes_to_dram_then_warms_up():
    h = MemoryHierarchy()
    first = h.access(0x1000, now=0)
    assert first.level == "DRAM"
    assert first.latency == (2 + 20 + 40 + 90)
    second = h.access(0x1000, now=200)
    assert second.level == "L1D"
    assert second.latency == 2


def test_l2_hit_after_l1_eviction():
    params = HierarchyParams()
    params.l1_params.size_bytes = 2 * 64 * 8     # tiny L1: 2 sets x 8 ways
    h = MemoryHierarchy(params)
    h.access(0x0000, now=0)
    # Fill the set until 0x0000 is evicted from L1 (same set: stride 2 lines).
    for index in range(1, 9):
        h.access(index * 128, now=index)
    result = h.access(0x0000, now=100)
    assert result.level == "L2"
    assert result.latency == 2 + 20


def test_l1_eviction_reported():
    params = HierarchyParams()
    params.l1_params.size_bytes = 64 * 2         # 1 set, 2 ways
    params.l1_params.ways = 2
    h = MemoryHierarchy(params)
    h.access(0x000, now=0)
    h.access(0x040, now=1)
    result = h.access(0x080, now=2)
    assert result.l1_evicted_line == 0x000


def test_mshr_exhaustion_stalls():
    params = HierarchyParams()
    params.mshrs = 2
    h = MemoryHierarchy(params)
    assert not h.access(0x0000, now=0).stalled
    assert not h.access(0x1000, now=0).stalled
    stalled = h.access(0x2000, now=0)
    assert stalled.stalled
    assert stalled.level == "STALL"
    # After the misses complete, new misses are accepted again.
    late = h.access(0x2000, now=1000)
    assert not late.stalled


def test_l1_hits_do_not_consume_mshrs():
    params = HierarchyParams()
    params.mshrs = 1
    h = MemoryHierarchy(params)
    h.access(0x0000, now=0)              # miss: occupies the only MSHR
    hit = h.access(0x0000, now=1)        # L1 hit: must not stall
    assert hit.level == "L1D" and not hit.stalled


def test_inclusive_fill_on_miss():
    h = MemoryHierarchy()
    h.access(0x7000, now=0)
    assert h.l1.probe(0x7000)
    assert h.l2.probe(0x7000)
    assert h.l3.probe(0x7000)
