"""Dynamic (in-flight) instruction record shared by pipeline and taint engines."""

from __future__ import annotations

from typing import Optional

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Kind


class DynInst:
    """One dynamic instruction travelling through the pipeline.

    Carries rename state, scheduling state, control/memory state, and the
    per-slot taint bits used by SPT's reservation-station untaint logic
    (paper Section 7.2-7.3).
    """

    __slots__ = (
        "seq", "pc", "inst", "kind", "info",
        # Kind predicates, fixed at construction (attributes, not
        # properties: these are read millions of times in the per-cycle
        # scheduler and engine loops).
        "is_predicted_control", "is_load", "is_store", "is_transmitter",
        # Rename.
        "prs1", "prs2", "prd", "old_prd",
        # Values (filled as operands become ready / result computed).
        "rs1_value", "rs2_value", "result",
        # Scheduling.
        "issued", "complete", "ready_cycle", "retired", "squashed",
        # Stall attribution (repro.obs.stall): why this instruction is
        # currently held back, if the protection engine is the reason.
        "engine_delayed", "resolution_delayed",
        # Lifecycle timestamps (for the pipeline tracer).
        "fetch_cycle", "dispatch_cycle", "issue_cycle", "complete_cycle",
        "retire_cycle",
        # Control flow.
        "predicted_taken", "predicted_target", "history_snapshot",
        "actual_taken", "actual_target", "mispredicted", "resolution_applied",
        # Memory.
        "address", "addr_ready", "mem_issued", "mem_complete",
        "forwarded_from", "fwding_st", "stl_public",
        # Visibility point / declassification.
        "reached_vp", "declassified",
        # SPT per-slot taint bits (7.3).
        "t_src1", "t_src2", "t_dst",
        # Window slot: index of this entry's bit in the packed SPTEngine's
        # bitmasks, -1 outside it.
        "fp_slot",
        # Wakeup state: number of source operands this entry still waits on
        # before it becomes an issue candidate (the core's event-driven
        # scheduler).
        "fp_wait",
    )

    def __init__(self, seq: int, pc: int, inst: Instruction):
        self.reinit(seq, pc, inst, inst.info)

    def reinit(self, seq: int, pc: int, inst: Instruction,
               info) -> None:
        """(Re)initialise every field, recycling the allocation.

        The core pools squashed instances and re-stamps them for new
        fetches (allocation is a hot-path cost under wrong-path
        overfetch); ``info`` is passed in so the pool's tight fetch loop can
        reuse the decode table's :class:`~repro.isa.opcodes.OpInfo` instead
        of paying the ``inst.info`` property per instruction.  Any structure
        that may hold a stale reference across a squash therefore tags it
        with the seq it saw and revalidates ``di.seq`` before trusting it —
        seqs are never reused.
        """
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.info = info
        kind = info.kind
        self.kind = kind
        self.is_predicted_control = kind in (Kind.BRANCH, Kind.JUMP_REG)
        self.is_load = kind == Kind.LOAD
        self.is_store = kind == Kind.STORE
        self.is_transmitter = kind in (Kind.LOAD, Kind.STORE)
        self.prs1 = -1
        self.prs2 = -1
        self.prd = -1
        self.old_prd = -1
        self.rs1_value: Optional[int] = None
        self.rs2_value: Optional[int] = None
        self.result: Optional[int] = None
        self.issued = False
        self.complete = False
        self.ready_cycle = -1
        self.retired = False
        self.squashed = False
        self.engine_delayed = False
        self.resolution_delayed = False
        self.fetch_cycle = -1
        self.dispatch_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.retire_cycle = -1
        self.predicted_taken = False
        self.predicted_target: Optional[int] = None
        self.history_snapshot = 0
        self.actual_taken = False
        self.actual_target: Optional[int] = None
        self.mispredicted = False
        self.resolution_applied = False
        self.address: Optional[int] = None
        self.addr_ready = False
        self.mem_issued = False
        self.mem_complete = False
        self.forwarded_from: Optional["DynInst"] = None
        self.fwding_st = -1
        self.stl_public = False
        self.reached_vp = False
        self.declassified = False
        self.t_src1 = False
        self.t_src2 = False
        self.t_dst = False
        self.fp_slot = -1
        self.fp_wait = 0

    def reinit_recycled(self, seq: int, tier: int) -> None:
        """Slim re-stamp for a pooled carcass reused at the *same pc*.

        The core keeps its recycling pools keyed by pc, so a recycled
        instance is always re-fetched as the same static instruction.
        Every field :meth:`reinit` resets but this method skips is then
        provably dead state, in one of three ways:

        * *identical by construction*: ``pc``/``inst``/``info``/``kind``
          and the kind predicates depend only on the pc;
        * *written before read on every path of this kind*: rename fields
          (``prs1``/``prs2``/``prd``/``old_prd`` — ``undo`` restores
          ``prd = -1`` on squash, and the same-pc read/write flags re-set
          exactly the same subset at dispatch), operand/result values
          (captured in ``_execute``/``_memory_stage``/load completion
          before any consumer), control outcomes (``predicted_*``/
          ``history_snapshot`` at fetch, ``actual_*``/``mispredicted`` at
          execute), and SPT slot bits (``t_*`` at rename);
        * *reader-free in a recycling run*: the lifecycle timestamps are
          only read by the tracer and the full-level sanitizer, and either
          one puts the core in stepped mode, which does not recycle.

        ``tier`` widens the reset set for kinds with cross-life hazards:
        1 (loads/stores) clears the memory-disambiguation and
        store-to-load-forwarding state read *before* the address resolves,
        plus ``declassified`` (transmitters leak operands at the VP);
        2 (branches/indirect jumps) clears ``resolution_applied`` (read by
        the visibility-point predicate before execute re-sets it) and
        ``declassified``.  The fetch loop inlines these stores for
        straight-line runs — this method is the specification it mirrors
        (and the path control-flow fetches take).
        """
        self.seq = seq
        self.issued = False
        self.complete = False
        self.ready_cycle = -1
        self.retired = False
        self.squashed = False
        self.engine_delayed = False
        self.resolution_delayed = False
        self.reached_vp = False
        if tier:
            self.declassified = False
            if tier == 1:
                self.addr_ready = False
                self.mem_issued = False
                self.mem_complete = False
                self.forwarded_from = None
                self.fwding_st = -1
                self.stl_public = False
            else:
                self.resolution_applied = False

    def __repr__(self) -> str:
        flags = "".join((
            "I" if self.issued else ".",
            "C" if self.complete else ".",
            "V" if self.reached_vp else ".",
            "R" if self.retired else ".",
            "X" if self.squashed else ".",
        ))
        return f"<#{self.seq} pc={self.pc} {self.inst} [{flags}]>"
