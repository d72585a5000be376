"""Register renaming: RAT, free list, and the physical register file.

Dispatch (``OoOCore._dispatch_batched``) renames inline, reading and
writing these structures directly; it stalls while the free list is empty.
Squash recovery walks the squashed instructions youngest-first and undoes
each rename (restoring the RAT entry to ``old_prd`` and freeing the allocated
register), which is equivalent to — and simpler than — per-branch RAT
checkpoints.
"""

from __future__ import annotations

from collections import deque

from repro.isa.opcodes import NUM_ARCH_REGS
from repro.pipeline.dyninst import DynInst


class RenameUnit:
    """RAT + free list + physical register file (values and ready bits)."""

    __slots__ = ("rat", "free", "ready", "value")

    def __init__(self, num_phys_regs: int):
        if num_phys_regs <= NUM_ARCH_REGS:
            raise ValueError("need more physical than architectural registers")
        # Identity mapping at reset: arch i -> phys i.
        self.rat: list[int] = list(range(NUM_ARCH_REGS))
        self.free: deque[int] = deque(range(NUM_ARCH_REGS, num_phys_regs))
        self.ready: list[bool] = [True] * num_phys_regs
        self.value: list[int] = [0] * num_phys_regs

    def undo(self, di: DynInst) -> None:
        """Reverse one rename during squash (call youngest-first)."""
        if di.prd >= 0:
            self.rat[di.inst.rd] = di.old_prd
            self.free.appendleft(di.prd)
            self.ready[di.prd] = True
            di.prd = -1

    def commit(self, di: DynInst) -> None:
        """Retire-time reclamation of the previous mapping."""
        if di.prd >= 0 and di.old_prd >= NUM_ARCH_REGS:
            self.free.append(di.old_prd)
        elif di.prd >= 0 and 0 <= di.old_prd < NUM_ARCH_REGS:
            # Initial identity registers are reclaimed once overwritten, but
            # phys 0 stays pinned as the architectural zero register.
            if di.old_prd != 0 and di.old_prd not in self.free:
                self.free.append(di.old_prd)

    def read(self, preg: int) -> int:
        return 0 if preg < 0 else self.value[preg]

    def arch_value(self, arch_reg: int) -> int:
        """Architectural read through the RAT (valid when pipeline drained)."""
        if arch_reg == 0:
            return 0
        return self.value[self.rat[arch_reg]]
