"""Golden functional interpreter.

Executes programs with exact architectural semantics and no timing model.
The out-of-order pipeline is differentially tested against this interpreter:
every configuration must retire the same instruction stream and produce the
same final architectural state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.isa.instructions import Instruction, Program
from repro.isa.opcodes import Kind, NUM_ARCH_REGS, WORD_MASK
from repro.isa.semantics import alu_result, branch_taken, effective_address


class InterpreterError(Exception):
    """Raised when a program misbehaves (e.g. runs off the end)."""


@dataclass
class ArchState:
    """Architectural machine state: registers + byte-addressed memory."""

    regs: list = field(default_factory=lambda: [0] * NUM_ARCH_REGS)
    memory: dict = field(default_factory=dict)

    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = value & WORD_MASK

    def load(self, address: int, size: int) -> int:
        value = 0
        for offset in range(size):
            value |= self.memory.get((address + offset) & WORD_MASK, 0) << (8 * offset)
        return value

    def store(self, address: int, value: int, size: int) -> None:
        for offset in range(size):
            self.memory[(address + offset) & WORD_MASK] = (value >> (8 * offset)) & 0xFF


@dataclass
class InterpResult:
    """Outcome of a functional run."""

    state: ArchState
    retired: int
    halted: bool
    pc_trace: Optional[list] = None

    def reg(self, index: int) -> int:
        return self.state.read_reg(index)

    def word(self, address: int) -> int:
        return self.state.load(address, 8)


def run_program(program: Program, max_instructions: int = 1_000_000,
                trace_pcs: bool = False) -> InterpResult:
    """Run ``program`` to HALT (or the instruction budget) and return state."""
    state = ArchState()
    state.memory.update(program.initial_memory.items())
    pc = 0
    retired = 0
    pcs: Optional[list] = [] if trace_pcs else None
    instructions = program.instructions
    length = len(instructions)
    while retired < max_instructions:
        if not 0 <= pc < length:
            raise InterpreterError(
                f"{program.name}: PC {pc} left the program (no HALT?)")
        inst = instructions[pc]
        if pcs is not None:
            pcs.append(pc)
        next_pc = step(state, inst, pc)
        retired += 1
        if next_pc is None:
            return InterpResult(state, retired, True, pcs)
        pc = next_pc
    return InterpResult(state, retired, False, pcs)


def step(state: ArchState, inst: Instruction, pc: int) -> Optional[int]:
    """Execute one instruction; returns the next PC or None on HALT."""
    kind = inst.info.kind
    if kind in (Kind.ALU, Kind.ALU_IMM, Kind.MOVE, Kind.LOAD_IMM):
        result = alu_result(inst, state.read_reg(inst.rs1),
                            state.read_reg(inst.rs2))
        state.write_reg(inst.rd, result)
        return pc + 1
    if kind == Kind.LOAD:
        address = effective_address(inst, state.read_reg(inst.rs1))
        state.write_reg(inst.rd, state.load(address, inst.info.mem_size))
        return pc + 1
    if kind == Kind.STORE:
        address = effective_address(inst, state.read_reg(inst.rs1))
        state.store(address, state.read_reg(inst.rs2), inst.info.mem_size)
        return pc + 1
    if kind == Kind.BRANCH:
        taken = branch_taken(inst, state.read_reg(inst.rs1),
                             state.read_reg(inst.rs2))
        return inst.imm if taken else pc + 1
    if kind == Kind.JUMP:
        state.write_reg(inst.rd, pc + 1)
        return inst.imm
    if kind == Kind.JUMP_REG:
        target = (state.read_reg(inst.rs1) + inst.imm) & WORD_MASK
        state.write_reg(inst.rd, pc + 1)
        return target
    if kind == Kind.HALT:
        return None
    if kind == Kind.NOP:
        return pc + 1
    raise InterpreterError(f"unhandled kind {kind}")
