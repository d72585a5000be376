"""Opcode definitions and static metadata for the repro ISA.

The ISA is a 64-bit, RISC-like, load/store architecture with 32 architectural
registers (``x0`` is hardwired to zero).  The program counter is an
*instruction index* (it advances by 1 per instruction); data memory is
byte-addressed.

Every opcode carries static metadata that the pipeline and the taint engines
consume:

* ``kind`` — coarse class (ALU, load, store, branch, jump, ...).
* ``latency`` — execution latency in cycles (memory ops use the hierarchy).
* ``reads``/``writes`` — which register fields are live.
* ``invertible`` — whether the backward untaint rule of SPT (Section 6.6 of
  the paper) applies: knowing the output and all-but-one input determines the
  remaining input.
* ``transmitter`` — whether the instruction's execution forms an explicit
  covert channel.  Following the paper's evaluation (Section 9.1), loads and
  stores are the transmit instructions and the leaked operand is the address
  base register.  Branches are implicit channels and are handled separately.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Kind(enum.Enum):
    """Coarse instruction class used by the pipeline."""

    ALU = "alu"
    ALU_IMM = "alu_imm"
    LOAD_IMM = "load_imm"
    MOVE = "move"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    JUMP_REG = "jump_reg"
    HALT = "halt"
    NOP = "nop"


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one opcode."""

    name: str
    kind: Kind
    latency: int = 1
    reads_rs1: bool = False
    reads_rs2: bool = False
    writes_rd: bool = False
    has_imm: bool = False
    invertible: bool = False
    mem_size: int = 0

    @property
    def is_mem(self) -> bool:
        return self.kind in (Kind.LOAD, Kind.STORE)

    @property
    def is_transmitter(self) -> bool:
        """Explicit-channel transmitters: loads and stores (paper Section 9.1)."""
        return self.is_mem


def _alu(name: str, latency: int = 1, invertible: bool = False) -> OpInfo:
    return OpInfo(name, Kind.ALU, latency=latency, reads_rs1=True,
                  reads_rs2=True, writes_rd=True, invertible=invertible)


def _alu_imm(name: str, latency: int = 1, invertible: bool = False) -> OpInfo:
    return OpInfo(name, Kind.ALU_IMM, latency=latency, reads_rs1=True,
                  writes_rd=True, has_imm=True, invertible=invertible)


def _load(name: str, size: int) -> OpInfo:
    return OpInfo(name, Kind.LOAD, reads_rs1=True, writes_rd=True,
                  has_imm=True, mem_size=size)


def _store(name: str, size: int) -> OpInfo:
    return OpInfo(name, Kind.STORE, reads_rs1=True, reads_rs2=True,
                  has_imm=True, mem_size=size)


def _branch(name: str) -> OpInfo:
    return OpInfo(name, Kind.BRANCH, reads_rs1=True, reads_rs2=True,
                  has_imm=True)


# Invertible operations (backward untaint applies): ADD/SUB/XOR and their
# immediate forms, rotates, NOT and MOV.  AND/OR/shifts/MUL/comparisons are
# lossy and therefore not invertible.
OPCODES: dict[str, OpInfo] = {
    # Register-register ALU.
    "ADD": _alu("ADD", invertible=True),
    "SUB": _alu("SUB", invertible=True),
    "AND": _alu("AND"),
    "OR": _alu("OR"),
    "XOR": _alu("XOR", invertible=True),
    "SLL": _alu("SLL"),
    "SRL": _alu("SRL"),
    "SRA": _alu("SRA"),
    "SLT": _alu("SLT"),
    "SLTU": _alu("SLTU"),
    "MUL": _alu("MUL", latency=3),
    "DIV": _alu("DIV", latency=12),
    "REM": _alu("REM", latency=12),
    # Register-immediate ALU.
    "ADDI": _alu_imm("ADDI", invertible=True),
    "ANDI": _alu_imm("ANDI"),
    "ORI": _alu_imm("ORI"),
    "XORI": _alu_imm("XORI", invertible=True),
    "SLLI": _alu_imm("SLLI"),
    "SRLI": _alu_imm("SRLI"),
    "SRAI": _alu_imm("SRAI"),
    "SLTI": _alu_imm("SLTI"),
    "ROTLI": _alu_imm("ROTLI", invertible=True),
    "ROTRI": _alu_imm("ROTRI", invertible=True),
    # Register move / unary (distinct opcodes because SPT's backward rule for
    # MOV is its own case in Section 6.6).
    "MOV": OpInfo("MOV", Kind.MOVE, reads_rs1=True, writes_rd=True,
                  invertible=True),
    "NOT": OpInfo("NOT", Kind.MOVE, reads_rs1=True, writes_rd=True,
                  invertible=True),
    # Load immediate: output depends only on ROB contents, so SPT untaints it
    # unconditionally (Section 6.5).
    "LI": OpInfo("LI", Kind.LOAD_IMM, writes_rd=True, has_imm=True),
    # Memory.  rs1 is the address base (leaked operand); rs2 is store data.
    "LD": _load("LD", 8),
    "LW": _load("LW", 4),
    "LH": _load("LH", 2),
    "LB": _load("LB", 1),
    "SD": _store("SD", 8),
    "SW": _store("SW", 4),
    "SH": _store("SH", 2),
    "SB": _store("SB", 1),
    # Control flow.  imm is the target instruction index for direct branches.
    "BEQ": _branch("BEQ"),
    "BNE": _branch("BNE"),
    "BLT": _branch("BLT"),
    "BGE": _branch("BGE"),
    "BLTU": _branch("BLTU"),
    "BGEU": _branch("BGEU"),
    "JAL": OpInfo("JAL", Kind.JUMP, writes_rd=True, has_imm=True),
    "JALR": OpInfo("JALR", Kind.JUMP_REG, reads_rs1=True, writes_rd=True,
                   has_imm=True),
    "HALT": OpInfo("HALT", Kind.HALT),
    "NOP": OpInfo("NOP", Kind.NOP),
}


BRANCH_OPS = frozenset(n for n, i in OPCODES.items() if i.kind == Kind.BRANCH)
LOAD_OPS = frozenset(n for n, i in OPCODES.items() if i.kind == Kind.LOAD)
STORE_OPS = frozenset(n for n, i in OPCODES.items() if i.kind == Kind.STORE)

NUM_ARCH_REGS = 32
WORD_MASK = (1 << 64) - 1
SIGN_BIT = 1 << 63


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as two's-complement signed."""
    value &= WORD_MASK
    return value - (1 << 64) if value & SIGN_BIT else value


def to_unsigned(value: int) -> int:
    """Wrap an arbitrary Python int into the 64-bit unsigned range."""
    return value & WORD_MASK
