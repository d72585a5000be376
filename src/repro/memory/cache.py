"""Set-associative cache model (tags + LRU only).

Caches in this simulator model *timing and presence*: architectural data
always lives in :class:`~repro.memory.main_memory.MainMemory`, which keeps the
functional semantics trivially correct, while the caches decide hit level and
latency and report L1 evictions (the shadow L1 mirrors those decisions,
Section 7.5 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class CacheParams:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    ways: int
    latency: int

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.line_bytes * self.ways)
        if sets <= 0:
            raise ValueError(f"{self.name}: size too small for geometry")
        return sets


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0


class Cache:
    """One level of set-associative, LRU, write-allocate cache.

    A set's way list is created by its first fill: a short simulation
    touches a few dozen of the L3's 2,048 sets, so building a core
    allocates one list per level instead of one per set.
    """

    def __init__(self, params: CacheParams):
        self.params = params
        self.stats = CacheStats()
        self._num_sets = params.num_sets
        # Per set: None until first filled, then the list of line
        # addresses, most recently used last.
        self._sets: list[Optional[list[int]]] = [None] * self._num_sets

    def line_address(self, address: int) -> int:
        return address - address % self.params.line_bytes

    def _set_index(self, line: int) -> int:
        return (line // self.params.line_bytes) % self._num_sets

    def probe(self, address: int) -> bool:
        """Tag check without any state change."""
        line = self.line_address(address)
        ways = self._sets[self._set_index(line)]
        return ways is not None and line in ways

    def access(self, address: int) -> tuple[bool, Optional[int]]:
        """Access ``address``; returns (hit, evicted_line_or_None).

        On a miss the line is filled, evicting the LRU line if the set is
        full.
        """
        line = self.line_address(address)
        index = self._set_index(line)
        ways = self._sets[index]
        if ways is None:
            self._sets[index] = [line]
            self.stats.misses += 1
            return False, None
        if line in ways:
            ways.remove(line)
            ways.append(line)
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        evicted = None
        if len(ways) >= self.params.ways:
            evicted = ways.pop(0)
        ways.append(line)
        return False, evicted
