"""Three-level cache hierarchy with MSHR-limited misses.

Latencies follow Table 1 of the paper: L1D 2 cycles, L2 20, L3 40, DRAM a
fixed latency beyond that.  An access walks L1D -> L2 -> L3 -> DRAM, filling
every level it missed in (inclusive hierarchy), and reports which L1 line (if
any) was evicted so the shadow L1 can mirror the decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.memory.cache import Cache, CacheParams


@dataclass
class HierarchyParams:
    """Latency/geometry knobs for the whole hierarchy (paper Table 1)."""

    l1_params: CacheParams = field(default_factory=lambda: CacheParams(
        "L1D", size_bytes=32 * 1024, line_bytes=64, ways=8, latency=2))
    l2_params: CacheParams = field(default_factory=lambda: CacheParams(
        "L2", size_bytes=256 * 1024, line_bytes=64, ways=16, latency=20))
    l3_params: CacheParams = field(default_factory=lambda: CacheParams(
        "L3", size_bytes=2 * 1024 * 1024, line_bytes=64, ways=16, latency=40))
    dram_latency: int = 90
    mshrs: int = 16


class AccessResult:
    """Outcome of one hierarchy access (slotted: one is built per access)."""

    __slots__ = ("latency", "level", "l1_evicted_line", "stalled")

    def __init__(self, latency: int, level: str,
                 l1_evicted_line: Optional[int], stalled: bool = False):
        self.latency = latency
        self.level = level                      # "L1D", "L2", "L3" or "DRAM"
        self.l1_evicted_line = l1_evicted_line
        self.stalled = stalled                  # MSHRs exhausted; retry


class MemoryHierarchy:
    """L1D/L2/L3/DRAM timing model with a finite MSHR pool."""

    def __init__(self, params: Optional[HierarchyParams] = None):
        self.params = params or HierarchyParams()
        self.l1 = Cache(self.params.l1_params)
        self.l2 = Cache(self.params.l2_params)
        self.l3 = Cache(self.params.l3_params)
        self._mshr_busy_until: list[int] = []

    def access(self, address: int, now: int, is_write: bool = False) -> AccessResult:
        """Perform a timed access at cycle ``now``.

        Returns the latency until data is available and which level supplied
        it.  A miss consumes an MSHR until completion; if all MSHRs are busy
        the access stalls (no state is changed) and must be retried.
        """
        if not self.l1.probe(address):
            self._mshr_busy_until = [t for t in self._mshr_busy_until if t > now]
            if len(self._mshr_busy_until) >= self.params.mshrs:
                return AccessResult(0, "STALL", None, stalled=True)
        latency = self.params.l1_params.latency
        hit, l1_evicted = self.l1.access(address)
        if hit:
            return AccessResult(latency, "L1D", None)
        latency += self.params.l2_params.latency
        hit, _ = self.l2.access(address)
        if hit:
            level = "L2"
        else:
            latency += self.params.l3_params.latency
            hit, _ = self.l3.access(address)
            if hit:
                level = "L3"
            else:
                latency += self.params.dram_latency
                level = "DRAM"
        self._mshr_busy_until.append(now + latency)
        return AccessResult(latency, level, l1_evicted)

    def l1_resident(self, address: int) -> bool:
        """Tag-check the L1D without touching replacement state."""
        return self.l1.probe(address)
