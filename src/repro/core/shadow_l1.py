"""Shadow L1 / shadow memory: byte-granular taint for cached data.

The shadow L1 (paper Sections 6.8 and 7.5) mirrors the L1D's geometry and
stores one taint bit per byte of each resident line.  It holds no tags: the
L1D's tag-check and eviction decisions drive it.  Lines are born fully
tainted (a fill re-taints), an eviction drops the line (so the data reads as
tainted again), untainted store data clears the written bytes, and a load
whose output register is already untainted clears the read bytes.

``ShadowMode.FULL_MEMORY`` is the idealised SPT {Bwd, ShadowMem} variant of
Table 2: taint is kept for every byte of memory and survives evictions.
"""

from __future__ import annotations

import enum


class ShadowMode(enum.Enum):
    NONE = "none"
    L1 = "l1"
    FULL_MEMORY = "mem"


class ShadowTaint:
    """Byte-granularity taint for memory-resident data.

    Lines are represented as integers with one bit per byte (bit set =
    tainted).  An absent line is fully tainted — which makes fills and
    resets free.
    """

    def __init__(self, mode: ShadowMode, line_bytes: int = 64):
        self.mode = mode
        self.line_bytes = line_bytes
        self._full_mask = (1 << line_bytes) - 1
        self._lines: dict[int, int] = {}
        self.stores_cleared = 0
        self.loads_cleared = 0

    def _line_and_mask(self, address: int, size: int) -> tuple[int, int]:
        line = address - address % self.line_bytes
        offset = address - line
        mask = ((1 << size) - 1) << offset
        return line, mask & self._full_mask

    def range_tainted(self, address: int, size: int) -> bool:
        """Is any byte of [address, address+size) tainted?

        Accesses that straddle a line boundary are conservatively split.
        """
        if self.mode == ShadowMode.NONE:
            return True
        while size > 0:
            line, mask = self._line_and_mask(address, size)
            span = min(size, self.line_bytes - (address - line))
            if self._lines.get(line, self._full_mask) & mask:
                return True
            address += span
            size -= span
        return False

    def set_range(self, address: int, size: int, tainted: bool) -> None:
        """Overwrite the taint of [address, address+size) (store rule)."""
        if self.mode == ShadowMode.NONE:
            return
        while size > 0:
            line, mask = self._line_and_mask(address, size)
            span = min(size, self.line_bytes - (address - line))
            current = self._lines.get(line, self._full_mask)
            if tainted:
                self._lines[line] = current | mask
            else:
                self._lines[line] = current & ~mask
            address += span
            size -= span

    def invalidate_line(self, line_address: int) -> None:
        """L1D eviction: data becomes tainted again (L1 mode)."""
        if self.mode == ShadowMode.L1:
            self._lines.pop(line_address, None)

    def lines(self) -> list[int]:
        """Line addresses currently tracked (i.e. holding explicit taint).

        In L1 mode every tracked line must be resident in the real L1D —
        an eviction drops the shadow line — which is exactly the
        ``shadow-residency`` invariant the repro.check sanitizer enforces.
        """
        return list(self._lines)

    def resident_untainted_bytes(self) -> int:
        """Diagnostic: how many bytes are currently tracked as untainted."""
        total = 0
        for mask in self._lines.values():
            total += self.line_bytes - bin(mask).count("1")
        return total
