"""Static instruction and program representations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.isa.opcodes import NUM_ARCH_REGS, OPCODES, Kind, OpInfo


class IsaError(Exception):
    """Raised for malformed instructions or programs."""


@dataclass(frozen=True)
class Instruction:
    """A single static instruction.

    ``rd``/``rs1``/``rs2`` are architectural register numbers; unused fields
    are 0.  ``imm`` is a Python int: a 64-bit constant for ALU-immediate ops,
    a byte offset for memory ops, and a target *instruction index* for control
    flow.
    """

    op: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        if self.op not in OPCODES:
            raise IsaError(f"unknown opcode {self.op!r}")
        for name, reg in (("rd", self.rd), ("rs1", self.rs1), ("rs2", self.rs2)):
            if not 0 <= reg < NUM_ARCH_REGS:
                raise IsaError(f"{name}={reg} out of range for {self.op}")

    @property
    def info(self) -> OpInfo:
        return OPCODES[self.op]

    def dest_reg(self) -> Optional[int]:
        """Architectural destination, or None (x0 writes are discarded)."""
        info = self.info
        if info.writes_rd and self.rd != 0:
            return self.rd
        return None

    def __str__(self) -> str:
        info = self.info
        parts = [self.op.lower()]
        operands = []
        if info.writes_rd:
            operands.append(f"x{self.rd}")
        if info.kind in (Kind.LOAD, Kind.STORE):
            data = f"x{self.rd}" if info.kind == Kind.LOAD else f"x{self.rs2}"
            return f"{parts[0]} {data}, {self.imm}(x{self.rs1})"
        if info.reads_rs1:
            operands.append(f"x{self.rs1}")
        if info.reads_rs2:
            operands.append(f"x{self.rs2}")
        if info.has_imm:
            operands.append(str(self.imm))
        return parts[0] + (" " + ", ".join(operands) if operands else "")


@dataclass
class Program:
    """A fully assembled program plus its initial data memory image.

    ``instructions`` is indexed by PC.  ``initial_memory`` maps byte address
    to byte value (0-255); unmentioned bytes read as zero.  ``symbols`` maps
    label name to instruction index, ``data_symbols`` maps data label to byte
    address — both are conveniences for tests and attack harnesses.

    Programs are immutable once assembled: every core built on one reads
    ``initial_memory`` in place, and the registry shares one program
    between runs.
    """

    instructions: Sequence[Instruction]
    initial_memory: dict[int, int] = field(default_factory=dict)
    symbols: dict[str, int] = field(default_factory=dict)
    data_symbols: dict[str, int] = field(default_factory=dict)
    name: str = "program"

    def __post_init__(self) -> None:
        if not self.instructions:
            raise IsaError("program has no instructions")
        for address, byte in self.initial_memory.items():
            if address < 0:
                raise IsaError(f"negative data address {address}")
            if not 0 <= byte <= 0xFF:
                raise IsaError(f"memory byte {byte} at {address} out of range")

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def fetch(self, pc: int) -> Optional[Instruction]:
        """Instruction at ``pc`` or None when the PC falls off the program.

        Wrong-path fetch can run past the end of the program; the pipeline
        treats a None fetch as an implicit halt bubble.
        """
        if 0 <= pc < len(self.instructions):
            return self.instructions[pc]
        return None


def store_word(memory: dict[int, int], address: int, value: int, size: int = 8) -> None:
    """Write ``size`` little-endian bytes of ``value`` into a memory image."""
    for offset in range(size):
        memory[address + offset] = (value >> (8 * offset)) & 0xFF


def load_word(memory: dict[int, int], address: int, size: int = 8) -> int:
    """Read ``size`` little-endian bytes from a memory image."""
    value = 0
    for offset in range(size):
        value |= memory.get(address + offset, 0) << (8 * offset)
    return value
