"""Decode-time lowering of per-instruction metadata to flat flag tables.

:class:`~repro.core.spt.ReferenceSPTEngine` re-derives instruction classes
(pure, invertible, transmitter, ...) from :mod:`repro.core.taint_algebra`
and :class:`~repro.isa.opcodes.OpInfo` on every consult.  The pipeline
phases of :class:`~repro.pipeline.core.OoOCore` and the packed
:class:`~repro.core.spt.SPTEngine` instead lower every static instruction
of a program **once** to flat per-PC columns, so the per-cycle work
indexes a list instead of chasing Python attributes.

Every flag is *defined* in terms of the reference predicates (the tests
compare the table against the functions over all opcodes); the lowering
must never restate a rule independently.
"""

from __future__ import annotations

from repro.isa.instructions import Instruction, Program
from repro.isa.opcodes import Kind, OpInfo

# Flag bits of one lowered instruction word.
F_PURE = 1 << 0          # kind in PURE_KINDS: forward rule applies
F_INV_MONO = 1 << 1      # invertible MOVE/ALU_IMM: backward -> src1
F_INV_ALU = 1 << 2       # invertible ALU: backward -> the one tainted src
F_LOAD = 1 << 3
F_TRANSMITTER = 1 << 4
F_BRANCH = 1 << 5
F_JUMP_REG = 1 << 6
F_PC_INFERABLE = 1 << 7  # output public by Property 1 (Section 6.5)


def lower_instruction(inst: Instruction) -> int:
    """The packed flag word for one static instruction."""
    # Imported here, not at module top: repro.core's package init imports
    # the engines, and the SPT engine imports this module.
    from repro.core.taint_algebra import PC_INFERABLE_KINDS, PURE_KINDS
    info: OpInfo = inst.info
    kind = info.kind
    flags = 0
    if kind in PURE_KINDS:
        flags |= F_PURE
    if info.invertible:
        if kind in (Kind.MOVE, Kind.ALU_IMM):
            flags |= F_INV_MONO
        elif kind == Kind.ALU:
            flags |= F_INV_ALU
    if kind == Kind.LOAD:
        flags |= F_LOAD
    if info.is_transmitter:
        flags |= F_TRANSMITTER
    if kind == Kind.BRANCH:
        flags |= F_BRANCH
    if kind == Kind.JUMP_REG:
        flags |= F_JUMP_REG
    if kind in PC_INFERABLE_KINDS:
        flags |= F_PC_INFERABLE
    return flags


# Fetch classes (``kindc``): how the batched fetch loop treats a PC.
KC_SIMPLE = 0      # straight-line: fetched in run-length batches
KC_CONTROL = 1     # BRANCH/JUMP/JUMP_REG: per-instruction predict path
KC_HALT = 2        # HALT: fetch stops after buffering it

# Dispatch classes (``dclass``): which dispatch-time resources a PC takes.
DC_RS = 0          # plain RS entry (ALU/branch/...)
DC_LOAD = 1        # RS entry + LQ entry
DC_STORE = 2       # RS entry + SQ entry
DC_NONE = 3        # HALT/NOP: completes at dispatch
DC_JUMP = 4        # JAL: link write + completes at dispatch


class ProgramTable:
    """Flat per-PC metadata for one program.

    ``flags`` feeds the packed SPT engine's rule evaluation.  The remaining
    columns drive the core's batched frontend: ``insts``/``infos`` give the
    fetch loop direct references (no ``inst.info`` property per fetch),
    ``kindc``/``runlen`` sort PCs into kinds for run-length batch fetch
    (``runlen[pc]`` = number of consecutive ``KC_SIMPLE`` instructions
    starting at ``pc``), and ``hasdest``/``needs_rs``/``dclass`` encode
    the per-PC dispatch checks.  Every column is *defined* by a predicate
    over the instruction (``Instruction.dest_reg``, its kind); the tests
    pin them against those predicates over all opcodes.
    """

    __slots__ = ("flags", "insts", "infos", "kindc", "runlen",
                 "hasdest", "needs_rs", "dclass", "rtier", "aluc")

    def __init__(self, program: Program):
        self.flags = [lower_instruction(inst) for inst in program]
        insts = list(program)
        self.insts = insts
        self.infos = [inst.info for inst in insts]
        kindc = []
        hasdest = []
        needs_rs = []
        dclass = []
        rtier = []
        for inst, info in zip(insts, self.infos):
            kind = info.kind
            if kind == Kind.HALT:
                kindc.append(KC_HALT)
            elif kind in (Kind.BRANCH, Kind.JUMP, Kind.JUMP_REG):
                kindc.append(KC_CONTROL)
            else:
                kindc.append(KC_SIMPLE)
            hasdest.append(inst.dest_reg() is not None)
            needs_rs.append(kind not in (Kind.HALT, Kind.NOP, Kind.JUMP))
            if kind == Kind.LOAD:
                dclass.append(DC_LOAD)
            elif kind == Kind.STORE:
                dclass.append(DC_STORE)
            elif kind in (Kind.HALT, Kind.NOP):
                dclass.append(DC_NONE)
            elif kind == Kind.JUMP:
                dclass.append(DC_JUMP)
            else:
                dclass.append(DC_RS)
            # Recycled-reinit tier (DynInst.reinit_recycled): which extra
            # fields a same-pc pooled re-stamp must clear.  JAL is tier 0:
            # its ``resolution_applied`` is unconditionally re-set at
            # dispatch before anything can read it.
            if kind in (Kind.LOAD, Kind.STORE):
                rtier.append(1)
            elif kind in (Kind.BRANCH, Kind.JUMP_REG):
                rtier.append(2)
            else:
                rtier.append(0)
        self.kindc = kindc
        self.hasdest = hasdest
        self.needs_rs = needs_rs
        self.dclass = dclass
        self.rtier = rtier
        # ALU-class PCs: issue computes and schedules these inline; the
        # core's ``_execute`` takes every other RS class.
        self.aluc = [info.kind in (Kind.ALU, Kind.ALU_IMM, Kind.MOVE,
                                   Kind.LOAD_IMM)
                     for info in self.infos]
        # Run lengths of consecutive simple instructions, computed right to
        # left: runlen[pc] answers "how many PCs can the fetch loop batch
        # from here before it must take the per-instruction path".
        runlen = [0] * len(insts)
        run = 0
        for pc in range(len(insts) - 1, -1, -1):
            run = run + 1 if kindc[pc] == KC_SIMPLE else 0
            runlen[pc] = run
        self.runlen = runlen


def lower_program(program: Program) -> ProgramTable:
    """Lower ``program``, caching the table on the program object.

    Programs are immutable once assembled (cores read the memory image in
    place and never write it), and both the core and the packed SPT engine
    lower the same program — the cache makes that one lowering, and makes
    repeated runs of one workload program table-free.
    """
    table = getattr(program, "_decode_table", None)
    if table is None:
        table = ProgramTable(program)
        program._decode_table = table
    return table
