"""Flat byte-addressed backing store.

This is the architectural memory behind the cache hierarchy.  Values are kept
per byte in a dict so that sparse address spaces (attack gadgets probe far
apart lines) stay cheap.
"""

from __future__ import annotations

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
    :class:`~repro.isa.instructions.Program`.

    With ``uninit_seed`` set, never-written bytes read as
    :func:`uninit_byte` instead of zero (pitchfork's ``SpectreOOBState``
    policy: uninitialised memory carries secrets).  Writes behave
    identically in both modes.
    """

    def __init__(self, image: dict[int, int] | None = None,
                 uninit_seed: int | None = None):
        self._image: dict[int, int] = image if image is not None else {}
        self._bytes: dict[int, int] = {}
        self._uninit_seed = uninit_seed

    def load(self, address: int, size: int) -> int:
        data = self._bytes
        image = self._image
        value = 0
        if self._uninit_seed is None:
            for offset in range(size):
                addr = (address + offset) & WORD_MASK
                byte = data.get(addr)
                if byte is None:
                    byte = image.get(addr, 0)
                value |= byte << (8 * offset)
            return value
        seed = self._uninit_seed
        for offset in range(size):
            addr = (address + offset) & WORD_MASK
            byte = data.get(addr)
            if byte is None:
                byte = image.get(addr)
                if byte is None:
                    byte = uninit_byte(seed, addr)
            value |= byte << (8 * offset)
        return value

    def store(self, address: int, value: int, size: int) -> None:
        data = self._bytes
        for offset in range(size):
            data[(address + offset) & WORD_MASK] = (value >> (8 * offset)) & 0xFF

    def snapshot(self) -> dict[int, int]:
        """A copy of all nonzero bytes, stores over the image (zero bytes
        are normalised away)."""
        merged = {**self._image, **self._bytes}
        return {a: b for a, b in merged.items() if b}
