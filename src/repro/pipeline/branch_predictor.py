"""Branch prediction: gshare direction predictor + BTB + return address stack.

Stands in for the paper's LTAGE (Table 1).  Two properties matter for the
reproduction:

* it mispredicts realistically, so transient (wrong-path) execution happens;
* its state is updated **only at branch resolution time** and is part of the
  attacker-observable trace, so the implicit-channel rule of STT/SPT
  ("tainted data must not affect predictor state", Section 2.2.1) is
  faithfully testable — delayed resolution delays the update.

Attack harnesses use :meth:`BranchPredictor.train_btb` to plant an
indirect-branch target the way Spectre-BTB attackers do.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Kind


class GsharePredictor:
    """Global-history XOR PC indexed 2-bit counter table."""

    def __init__(self, history_bits: int = 12):
        self._table = [1] * (1 << history_bits)   # weakly not-taken
        self._mask = (1 << history_bits) - 1
        self.history = 0

    def _index(self, pc: int, history: int) -> int:
        return (pc ^ history) & self._mask

    def predict(self, pc: int) -> tuple[bool, int]:
        """Predict direction; returns (taken, history_snapshot)."""
        snapshot = self.history
        taken = self._table[self._index(pc, snapshot)] >= 2
        # Speculative history update (standard for global-history predictors).
        self.history = ((snapshot << 1) | (1 if taken else 0)) & self._mask
        return taken, snapshot

    def update(self, pc: int, history_snapshot: int, taken: bool) -> None:
        index = self._index(pc, history_snapshot)
        counter = self._table[index]
        if taken:
            self._table[index] = min(3, counter + 1)
        else:
            self._table[index] = max(0, counter - 1)

    def repair_history(self, history_snapshot: int, taken: bool) -> None:
        """Restore history after a direction misprediction."""
        self.history = ((history_snapshot << 1) | (1 if taken else 0)) & self._mask


class BranchTargetBuffer:
    """Direct-mapped, tagged BTB for indirect jump targets.

    Each entry stores ``(tag, target)``: a lookup hits only when the stored
    tag matches the full PC, so two branches that alias in the index
    (``pc % entries``) no longer silently share a target.  Attack harnesses
    can still plant an entry that hits *any* PC mapping to the index
    (``alias_ok=True`` stores a wildcard tag) — this models the partial-tag
    aliasing that Spectre-BTB exploits without inflicting it on every
    workload that happens to collide.
    """

    def __init__(self, entries: int = 512):
        self._entries = entries
        self._table: dict[int, tuple[Optional[int], int]] = {}

    def predict(self, pc: int) -> Optional[int]:
        entry = self._table.get(pc % self._entries)
        if entry is None:
            return None
        tag, target = entry
        if tag is not None and tag != pc:
            return None
        return target

    def update(self, pc: int, target: int, alias_ok: bool = False) -> None:
        self._table[pc % self._entries] = (None if alias_ok else pc, target)


class ReturnAddressStack:
    """Bounded RAS; JALR with rs1=ra pops, JAL/JALR with rd=ra pushes."""

    def __init__(self, entries: int = 16):
        self._entries = entries
        self._stack: list[int] = []

    def push(self, return_pc: int) -> None:
        if len(self._stack) >= self._entries:
            self._stack.pop(0)
        self._stack.append(return_pc)

    def pop(self) -> Optional[int]:
        if self._stack:
            return self._stack.pop()
        return None

    def snapshot(self) -> tuple:
        """The stack contents (immutable, oldest first)."""
        return tuple(self._stack)

    def restore(self, state: tuple) -> None:
        self._stack = list(state)

    def depth(self) -> int:
        return len(self._stack)


class BranchPredictor:
    """Composite frontend predictor used by the fetch stage."""

    def __init__(self, history_bits: int = 12, btb_entries: int = 512,
                 ras_entries: int = 16):
        self.direction = GsharePredictor(history_bits)
        self.btb = BranchTargetBuffer(btb_entries)
        self.ras = ReturnAddressStack(ras_entries)

    def predict(self, pc: int, inst: Instruction) -> tuple[bool, Optional[int], int]:
        """Predict one control instruction at fetch.

        Returns (predicted_taken, predicted_target, history_snapshot).
        ``predicted_target`` is None when no target is known (untrained BTB),
        in which case fetch falls through and waits for resolution.
        """
        kind = inst.info.kind
        if kind == Kind.BRANCH:
            taken, snapshot = self.direction.predict(pc)
            return taken, inst.imm if taken else pc + 1, snapshot
        if kind == Kind.JUMP:
            if inst.rd == 1:   # call: push return address
                self.ras.push(pc + 1)
            return True, inst.imm, 0
        if kind == Kind.JUMP_REG:
            if inst.rd == 1:
                self.ras.push(pc + 1)
            if inst.rs1 == 1 and inst.rd != 1:   # return
                target = self.ras.pop()
                if target is not None:
                    return True, target, 0
            return True, self.btb.predict(pc), 0
        raise ValueError(f"{inst.op} is not a control instruction")

    # ------------------------------------------------- speculative state
    # ``predict`` mutates the RAS and the gshare history *at fetch time*,
    # i.e. speculatively.  The core snapshots this state before every
    # prediction and restores it when a squash kills the predicted
    # instruction, so wrong-path calls/returns cannot permanently corrupt
    # the stack (the bug that used to break Spectre-RSB gadgets).
    def speculative_state(self) -> tuple:
        return (self.direction.history, self.ras.snapshot())

    def restore_speculative_state(self, state: tuple) -> None:
        self.direction.history = state[0]
        self.ras.restore(state[1])

    def resolve(self, pc: int, inst: Instruction, taken: bool, target: int,
                history_snapshot: int, mispredicted: bool) -> None:
        """Apply the resolution-time update (delayed by STT/SPT rules)."""
        kind = inst.info.kind
        if kind == Kind.BRANCH:
            self.direction.update(pc, history_snapshot, taken)
            if mispredicted:
                self.direction.repair_history(history_snapshot, taken)
        elif kind == Kind.JUMP_REG:
            self.btb.update(pc, target)

    # ------------------------------------------------------ attack interface
    def train_btb(self, pc: int, target: int, alias_ok: bool = False) -> None:
        """Plant an indirect-branch target (SmotherSpectre-style).

        With ``alias_ok=True`` the planted entry hits *any* PC that maps to
        the same BTB index — the attacker trains from its own, aliased
        branch address, the way Spectre-BTB injects victim targets.
        """
        self.btb.update(pc, target, alias_ok=alias_ok)
