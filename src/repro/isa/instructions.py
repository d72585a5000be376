"""Static instruction and program representations."""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from repro.isa.opcodes import NUM_ARCH_REGS, OPCODES, WORD_MASK, Kind, OpInfo


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


class MemoryImage(Mapping):
    """A program's initial data memory: an immutable ``{byte address:
    byte}`` mapping held as sorted, disjoint ``(base, bytes)`` segments.

    Segments hold a workload's arrays at one byte per byte, where a dict
    spends an entry on each.  Every byte lies in the machine's address
    space [0, 2^64); anything else raises :class:`IsaError`.  Adjacent
    segments are merged, so one mapping has one set of segments.
    Addresses in no segment (``reserve`` gaps) are absent, as in a dict:
    they read as zero, or as ``uninit_byte`` under ``uninit_secret_seed``.
    """

    __slots__ = ("_bases", "_segments")

    def __init__(self, segments: Iterable[tuple[int, bytes]] = ()):
        runs: list[tuple[int, list[bytes]]] = []
        end = -1
        for base, data in sorted(segments, key=lambda segment: segment[0]):
            if not data:
                continue
            if base < 0 or base + len(data) > WORD_MASK + 1:
                raise IsaError(f"data bytes {base:#x}..{base + len(data) - 1:#x}"
                               " lie outside the 64-bit address space")
            if base < end:
                raise IsaError(f"data segments overlap at {base:#x}")
            if base == end:
                runs[-1][1].append(data)
            else:
                runs.append((base, [data]))
            end = base + len(data)
        self._segments = [(base, b"".join(parts)) for base, parts in runs]
        self._bases = [base for base, _ in self._segments]

    @classmethod
    def from_dict(cls, memory: Mapping[int, int]) -> "MemoryImage":
        """The image of a ``{byte address: byte}`` dict, validated."""
        runs: list[tuple[int, bytearray]] = []
        for address in sorted(memory):
            byte = memory[address]
            if not 0 <= byte <= 0xFF:
                raise IsaError(f"memory byte {byte} at {address} out of range")
            if runs and runs[-1][0] + len(runs[-1][1]) == address:
                runs[-1][1].append(byte)
            else:
                runs.append((address, bytearray((byte,))))
        return cls(runs)

    def read(self, address: int, size: int) -> Optional[bytes]:
        """The image bytes at ``address .. address + size - 1``: all of them
        when one segment holds them, ``b""`` when the image holds none of
        them, else None (the range meets a segment's edge or wraps at
        2^64)."""
        index = bisect_right(self._bases, address) - 1
        end = address + size
        if index >= 0:
            base, data = self._segments[index]
            if end <= base + len(data):
                return data[address - base:end - base]
            if address < base + len(data):
                return None
        if end > WORD_MASK + 1 or (index + 1 < len(self._bases)
                                   and end > self._bases[index + 1]):
            return None
        return b""

    def segments(self) -> list[tuple[int, bytes]]:
        """The ``(base, bytes)`` segments, in address order."""
        return list(self._segments)

    def get(self, address: int, default: Optional[int] = None) -> Optional[int]:
        byte = self.read(address, 1)
        return byte[0] if byte else default

    def __getitem__(self, address: int) -> int:
        byte = self.get(address)
        if byte is None:
            raise KeyError(address)
        return byte

    def __len__(self) -> int:
        return sum(len(data) for _, data in self._segments)

    def __iter__(self) -> Iterator[int]:
        for base, data in self._segments:
            yield from range(base, base + len(data))

    def items(self) -> ItemsView:
        return _ImageItems(self)

    def __repr__(self) -> str:
        spans = ", ".join(f"{base:#x}+{len(data)}"
                          for base, data in self._segments)
        return f"MemoryImage([{spans}])"


class _ImageItems(ItemsView):
    """``(address, byte)`` pairs read segment by segment, not by lookup."""

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for base, data in self._mapping._segments:
            yield from zip(range(base, base + len(data)), data)


@dataclass
class Program:
    """A fully assembled program plus its initial data memory image.

    ``instructions`` is indexed by PC.  ``initial_memory`` is a
    :class:`MemoryImage`: a read-only ``{byte address: byte}`` mapping
    whose unmentioned bytes read as zero.  A dict passed in (the
    assembler's, a test's) is converted and validated once, here.
    ``symbols`` maps label name to instruction index, ``data_symbols``
    maps data label to byte address — both are conveniences for tests and
    attack harnesses.

    Programs are immutable once assembled: every core built on one reads
    ``initial_memory`` in place, and the registry shares one program
    between runs.
    """

    instructions: Sequence[Instruction]
    initial_memory: MemoryImage = field(default_factory=MemoryImage)
    symbols: dict[str, int] = field(default_factory=dict)
    data_symbols: dict[str, int] = field(default_factory=dict)
    name: str = "program"

    def __post_init__(self) -> None:
        if not self.instructions:
            raise IsaError("program has no instructions")
        if not isinstance(self.initial_memory, MemoryImage):
            self.initial_memory = MemoryImage.from_dict(self.initial_memory)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)


def store_word(memory: dict[int, int], address: int, value: int, size: int = 8) -> None:
    """Write ``size`` little-endian bytes of ``value`` into a byte dict."""
    for offset in range(size):
        memory[address + offset] = (value >> (8 * offset)) & 0xFF
