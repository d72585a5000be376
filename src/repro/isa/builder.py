"""Programmatic program builder.

The builder is the workhorse for writing workloads: it offers labels with
forward references, loop helpers, and a tiny data-segment allocator, while
emitting exactly the same :class:`~repro.isa.instructions.Program` objects as
the text assembler.

Example::

    b = ProgramBuilder("sum")
    array = b.alloc_words("array", [1, 2, 3, 4])
    b.li("a0", array)
    b.li("a1", 0)
    with b.loop(count=4, counter="t0"):
        b.ld("t1", "a0", 0)
        b.add("a1", "a1", "t1")
        b.addi("a0", "a0", 8)
    b.halt()
    program = b.build()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Union

from repro.isa.assembler import parse_register
from repro.isa.instructions import Instruction, IsaError, MemoryImage, Program
from repro.isa.opcodes import OPCODES, WORD_MASK, Kind

Reg = Union[str, int]


class _Label:
    """A (possibly forward) instruction-index reference."""

    def __init__(self, name: str):
        self.name = name
        self.pc: Optional[int] = None


class ProgramBuilder:
    """Fluent builder for programs in the repro ISA."""

    def __init__(self, name: str = "program", data_base: int = 0x1000):
        self.name = name
        self._instructions: list[tuple[str, int, int, int, object]] = []
        self._labels: dict[str, _Label] = {}
        self._segments: list[tuple[int, bytes]] = []
        self._data_symbols: dict[str, int] = {}
        self._data_cursor = data_base
        self._auto_label = 0

    # ------------------------------------------------------------------ data
    def alloc_words(self, name: str, values: Iterable[int],
                    align: int = 8) -> int:
        """Allocate and initialise an array of 8-byte words; returns address."""
        data = b"".join((value & WORD_MASK).to_bytes(8, "little")
                        for value in values)
        return self._alloc(name, data, align)

    def alloc_bytes(self, name: str, values: Iterable[int],
                    align: int = 8) -> int:
        """Allocate and initialise a byte array; returns its address."""
        return self._alloc(name, bytes(value & 0xFF for value in values), align)

    def _alloc(self, name: str, data: bytes, align: int) -> int:
        address = self._align(align)
        self._segments.append((address, data))
        self._data_cursor = address + len(data)
        self._data_symbols[name] = address
        return address

    def reserve(self, name: str, size_bytes: int, align: int = 8) -> int:
        """Reserve zero-initialised space; returns its address."""
        address = self._align(align)
        self._data_cursor = address + size_bytes
        self._data_symbols[name] = address
        return address

    def _align(self, align: int) -> int:
        cursor = self._data_cursor
        if cursor % align:
            cursor += align - cursor % align
        return cursor

    # ---------------------------------------------------------------- labels
    def label(self, name: Optional[str] = None) -> str:
        """Create (or place) a label at the current position."""
        if name is None:
            name = f"_L{self._auto_label}"
            self._auto_label += 1
        ref = self._labels.setdefault(name, _Label(name))
        if ref.pc is not None:
            raise IsaError(f"label {name!r} placed twice")
        ref.pc = len(self._instructions)
        return name

    def forward_label(self, name: Optional[str] = None) -> str:
        """Declare a label to be placed later with :meth:`place`."""
        if name is None:
            name = f"_L{self._auto_label}"
            self._auto_label += 1
        self._labels.setdefault(name, _Label(name))
        return name

    def place(self, name: str) -> None:
        """Place a previously declared forward label here."""
        ref = self._labels.setdefault(name, _Label(name))
        if ref.pc is not None:
            raise IsaError(f"label {name!r} placed twice")
        ref.pc = len(self._instructions)

    # ------------------------------------------------------------------ emit
    def emit(self, op: str, rd: Reg = 0, rs1: Reg = 0, rs2: Reg = 0,
             imm: object = 0) -> "ProgramBuilder":
        """Append one instruction; ``imm`` may be an int or a label name."""
        if op not in OPCODES:
            raise IsaError(f"unknown opcode {op!r}")
        self._instructions.append(
            (op, self._reg(rd), self._reg(rs1), self._reg(rs2), imm))
        return self

    @staticmethod
    def _reg(reg: Reg) -> int:
        if isinstance(reg, str):
            return parse_register(reg)
        return reg

    # Generated convenience emitters -----------------------------------
    def li(self, rd: Reg, imm: int) -> "ProgramBuilder":
        return self.emit("LI", rd=rd, imm=imm)

    def mov(self, rd: Reg, rs1: Reg) -> "ProgramBuilder":
        return self.emit("MOV", rd=rd, rs1=rs1)

    def halt(self) -> "ProgramBuilder":
        return self.emit("HALT")

    def nop(self) -> "ProgramBuilder":
        return self.emit("NOP")

    def jal(self, rd: Reg, target: object) -> "ProgramBuilder":
        return self.emit("JAL", rd=rd, imm=target)

    def jalr(self, rd: Reg, rs1: Reg, imm: int = 0) -> "ProgramBuilder":
        return self.emit("JALR", rd=rd, rs1=rs1, imm=imm)

    def __getattr__(self, name: str):
        op = name.upper()
        if op not in OPCODES:
            raise AttributeError(name)
        info = OPCODES[op]

        if info.kind == Kind.ALU:
            def alu(rd: Reg, rs1: Reg, rs2: Reg, _op=op):
                return self.emit(_op, rd=rd, rs1=rs1, rs2=rs2)
            return alu
        if info.kind == Kind.ALU_IMM:
            def alu_imm(rd: Reg, rs1: Reg, imm: int, _op=op):
                return self.emit(_op, rd=rd, rs1=rs1, imm=imm)
            return alu_imm
        if info.kind == Kind.MOVE:
            def move(rd: Reg, rs1: Reg, _op=op):
                return self.emit(_op, rd=rd, rs1=rs1)
            return move
        if info.kind == Kind.LOAD:
            def load(rd: Reg, base: Reg, offset: int = 0, _op=op):
                return self.emit(_op, rd=rd, rs1=base, imm=offset)
            return load
        if info.kind == Kind.STORE:
            def store(data: Reg, base: Reg, offset: int = 0, _op=op):
                return self.emit(_op, rs1=base, rs2=data, imm=offset)
            return store
        if info.kind == Kind.BRANCH:
            def branch(rs1: Reg, rs2: Reg, target: object, _op=op):
                return self.emit(_op, rs1=rs1, rs2=rs2, imm=target)
            return branch
        raise AttributeError(name)

    # ----------------------------------------------------------- structures
    @contextmanager
    def loop(self, count: int, counter: Reg = "t6") -> Iterator[None]:
        """Emit a counted loop: ``counter`` runs ``count`` down to zero."""
        self.li(counter, count)
        top = self.label()
        yield
        self.emit("ADDI", rd=counter, rs1=counter, imm=-1 & ((1 << 64) - 1))
        self.emit("BNE", rs1=self._reg(counter), rs2=0, imm=top)

    # ----------------------------------------------------------------- build
    def build(self) -> Program:
        symbols = {}
        for name, ref in self._labels.items():
            if ref.pc is None:
                raise IsaError(f"label {name!r} was never placed")
            symbols[name] = ref.pc
        instructions = []
        for op, rd, rs1, rs2, imm in self._instructions:
            if isinstance(imm, str):
                if imm in symbols:
                    imm = symbols[imm]
                elif imm in self._data_symbols:
                    imm = self._data_symbols[imm]
                else:
                    raise IsaError(f"unresolved symbol {imm!r}")
            instructions.append(Instruction(op, rd=rd, rs1=rs1, rs2=rs2, imm=imm))
        return Program(instructions, MemoryImage(self._segments), symbols,
                       dict(self._data_symbols), self.name)
