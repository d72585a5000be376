"""Flat byte-addressed backing store.

This is the architectural memory behind the cache hierarchy.  It reads the
program's :class:`~repro.isa.instructions.MemoryImage` (byte segments) in
place and keeps the bytes a run stores in a per-byte dict overlay, so
sparse address spaces (attack gadgets probe far apart lines) stay cheap.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.isa.instructions import MemoryImage
from repro.isa.opcodes import WORD_MASK


def uninit_byte(seed: int, address: int) -> int:
    """The byte an *unwritten* address reads as under the uninitialised-
    memory-is-secret policy (``MachineParams.uninit_secret_seed``).

    A splitmix64-style keyed mix: deterministic, process-independent, and
    address-sensitive, so two seeds give trace-indistinguishable fills
    unless the program actually observes an uninitialised byte.
    """
    x = (address * 0x9E3779B97F4A7C15 + seed * 0xBF58476D1CE4E5B9) & WORD_MASK
    x ^= x >> 30
    x = (x * 0x94D049BB133111EB) & WORD_MASK
    x ^= x >> 27
    return x & 0xFF


class MainMemory:
    """Byte-addressed main memory with little-endian multi-byte accessors.

    The program's image is read in place and never written: stores go to a
    per-memory overlay that wins over the image, so building a core copies
    nothing and any number of cores may share one
    :class:`~repro.isa.instructions.Program`.  A load that lies inside one
    image segment reads it with one slice; the overlay is applied on top.

    With ``uninit_seed`` set, never-written bytes read as
    :func:`uninit_byte` instead of zero (pitchfork's ``SpectreOOBState``
    policy: uninitialised memory carries secrets).  Writes behave
    identically in both modes.
    """

    def __init__(self, image: Optional[Mapping[int, int]] = None,
                 uninit_seed: Optional[int] = None):
        self._image = image if isinstance(image, MemoryImage) \
            else MemoryImage.from_dict(image or {})
        self._bytes: dict[int, int] = {}
        self._uninit_seed = uninit_seed

    def load(self, address: int, size: int) -> int:
        address &= WORD_MASK
        image = self._image.read(address, size)
        if image:
            value = int.from_bytes(image, "little")
        elif image is None or self._uninit_seed is not None:
            return self._load_bytes(address, size)
        else:
            value = 0           # a gap of the image: a ``reserve``d array
        data = self._bytes
        if data:
            for offset in range(size):
                byte = data.get(address + offset)
                if byte is not None:
                    shift = 8 * offset
                    value = value & ~(0xFF << shift) | byte << shift
        return value

    def _load_bytes(self, address: int, size: int) -> int:
        """Byte by byte: across a segment's edge, across the 2^64 wrap,
        or in a gap under ``uninit_seed``."""
        data = self._bytes
        image = self._image
        seed = self._uninit_seed
        value = 0
        for offset in range(size):
            addr = (address + offset) & WORD_MASK
            byte = data.get(addr)
            if byte is None:
                byte = image.get(addr)
                if byte is None:
                    byte = 0 if seed is None else uninit_byte(seed, addr)
            value |= byte << (8 * offset)
        return value

    def store(self, address: int, value: int, size: int) -> None:
        data = self._bytes
        for offset in range(size):
            data[(address + offset) & WORD_MASK] = (value >> (8 * offset)) & 0xFF

    def snapshot(self) -> dict[int, int]:
        """A copy of all nonzero bytes, stores over the image (zero bytes
        are normalised away)."""
        merged = dict(self._image.items())
        merged.update(self._bytes)
        return {a: b for a, b in merged.items() if b}
