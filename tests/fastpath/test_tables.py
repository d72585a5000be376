"""The decode tables must be definitionally tied to the reference rules.

Every flag in :mod:`repro.fastpath.tables` is checked against the
predicate it lowers — over *every* opcode in the ISA and, for the
forward/backward rules, over every realizable taint combination — so a
new opcode or a rule change cannot silently diverge between the packed
SPTEngine and ReferenceSPTEngine, or between the core's columns and the
instruction predicates they cache.
"""

import pytest

from repro.core.taint_algebra import (PC_INFERABLE_KINDS, PURE_KINDS,
                                      backward_untaints,
                                      forward_untaints_output,
                                      initial_output_taint)
from repro.fastpath.tables import (DC_JUMP, DC_LOAD, DC_NONE, DC_RS,
                                   DC_STORE, F_BRANCH, F_INV_ALU, F_INV_MONO,
                                   F_JUMP_REG, F_LOAD, F_PC_INFERABLE, F_PURE,
                                   F_TRANSMITTER, KC_CONTROL, KC_HALT,
                                   KC_SIMPLE, lower_instruction,
                                   lower_program)
from repro.isa.instructions import Instruction
from repro.isa.opcodes import OPCODES, Kind
from repro.workloads.registry import get as get_workload

ALL_INSTS = [Instruction(name, rd=1, rs1=2, rs2=3)
             for name in sorted(OPCODES)]

# Taint states the pipeline can actually produce: ``t_src2`` is only ever
# set for instructions that read a second register source.
def _realizable_taints(inst):
    for src1 in (False, True):
        for src2 in ((False, True) if inst.info.reads_rs2 else (False,)):
            yield src1, src2


@pytest.mark.parametrize("inst", ALL_INSTS, ids=lambda i: i.op)
def test_static_flags_match_predicates(inst):
    info = inst.info
    flags = lower_instruction(inst)
    assert bool(flags & F_PURE) == (info.kind in PURE_KINDS)
    assert bool(flags & F_LOAD) == (info.kind == Kind.LOAD)
    assert bool(flags & F_TRANSMITTER) == info.is_transmitter
    assert bool(flags & F_BRANCH) == (info.kind == Kind.BRANCH)
    assert bool(flags & F_JUMP_REG) == (info.kind == Kind.JUMP_REG)
    assert bool(flags & F_PC_INFERABLE) == (info.kind in PC_INFERABLE_KINDS)
    # The two invertibility classes partition the invertible opcodes.
    assert not (flags & F_INV_MONO and flags & F_INV_ALU)
    assert bool(flags & (F_INV_MONO | F_INV_ALU)) == info.invertible


@pytest.mark.parametrize("inst", ALL_INSTS, ids=lambda i: i.op)
def test_forward_rule_equivalence(inst):
    # The vector engine fires the forward rule when F_PURE is set and no
    # source bit is set; that must equal the reference predicate on every
    # realizable taint state.
    flags = lower_instruction(inst)
    for src1, src2 in _realizable_taints(inst):
        table_fires = bool(flags & F_PURE) and not src1 and not src2
        assert table_fires == forward_untaints_output(inst, src1, src2)


@pytest.mark.parametrize("inst", ALL_INSTS, ids=lambda i: i.op)
def test_backward_rule_equivalence(inst):
    # The vector engine's backward decision, reconstructed from the flag
    # word, must name the same source as the reference function.
    flags = lower_instruction(inst)
    for src1, src2 in _realizable_taints(inst):
        for dst in (False, True):
            if dst or not flags & (F_INV_MONO | F_INV_ALU):
                table_says = None
            elif flags & F_INV_MONO:
                table_says = "src1" if src1 else None
            elif src1 != src2:
                table_says = "src1" if src1 else "src2"
            else:
                table_says = None
            assert table_says == backward_untaints(inst, dst, src1, src2)


@pytest.mark.parametrize("inst", ALL_INSTS, ids=lambda i: i.op)
def test_rename_taint_flags_consistent(inst):
    # Section 6.3/6.5: loads rename tainted, PC-inferable outputs never do.
    flags = lower_instruction(inst)
    if flags & F_LOAD:
        assert initial_output_taint(inst, False, False)
    if flags & F_PC_INFERABLE:
        assert not initial_output_taint(inst, True, True)


def test_program_table_covers_every_pc():
    program = get_workload("mcf").program(1)
    table = lower_program(program)
    insts = list(program)
    assert len(table.flags) == len(insts)
    for pc, inst in enumerate(insts):
        assert table.flags[pc] == lower_instruction(inst)


# The frontend/dispatch columns are *defined* by these reference
# predicates; pin each one over every PC of a real program so a new
# opcode kind (or a change to the reference checks they cache) cannot
# silently diverge the batched paths that consume them.

_KINDC = {Kind.HALT: KC_HALT, Kind.BRANCH: KC_CONTROL,
          Kind.JUMP: KC_CONTROL, Kind.JUMP_REG: KC_CONTROL}
_DCLASS = {Kind.LOAD: DC_LOAD, Kind.STORE: DC_STORE, Kind.HALT: DC_NONE,
           Kind.NOP: DC_NONE, Kind.JUMP: DC_JUMP}
_RTIER = {Kind.LOAD: 1, Kind.STORE: 1, Kind.BRANCH: 2, Kind.JUMP_REG: 2}
_ALU_KINDS = (Kind.ALU, Kind.ALU_IMM, Kind.MOVE, Kind.LOAD_IMM)


@pytest.mark.parametrize("workload", ["mcf", "xz", "chacha20"])
def test_frontend_columns_match_reference_predicates(workload):
    program = get_workload(workload).program(1)
    table = lower_program(program)
    insts = list(program)
    for pc, inst in enumerate(insts):
        kind = inst.info.kind
        assert table.kindc[pc] == _KINDC.get(kind, KC_SIMPLE)
        assert table.hasdest[pc] == (inst.dest_reg() is not None)
        assert table.needs_rs[pc] == (kind not in (Kind.HALT, Kind.NOP,
                                                   Kind.JUMP))
        assert table.dclass[pc] == _DCLASS.get(kind, DC_RS)
        assert table.rtier[pc] == _RTIER.get(kind, 0)
        assert table.aluc[pc] == (kind in _ALU_KINDS)
        assert table.insts[pc] is inst
        assert table.infos[pc] is inst.info
    # runlen[pc] counts the consecutive KC_SIMPLE PCs starting at pc.
    for pc in range(len(insts)):
        expected = 0
        probe = pc
        while (probe < len(insts)
               and table.kindc[probe] == KC_SIMPLE):
            expected += 1
            probe += 1
        assert table.runlen[pc] == expected


def test_lower_program_is_memoized_per_program():
    program = get_workload("mcf").program(1)
    assert lower_program(program) is lower_program(program)
