"""Word-granular symbolic memory for the bounded symbolic explorer.

Mirrors :class:`repro.isa.interpreter.ArchState`'s memory exactly — a sparse
byte-addressed space with little-endian multi-byte access and 2^64 address
wrap — except each byte may be a symbolic term (an
:class:`repro.verify.expr.Expr` with interval ``[0, 255]``) instead of an
int.  Addresses themselves are always concrete here: a *symbolic* address is
a leak by definition and the explorer reports it before ever reaching this
layer.

Four things matter for precision and speed:

* **Word cells** — an aligned 8-byte store keeps its value whole, as one
  cell, and an aligned 8-byte load of the cell returns that value.  Only a
  narrower or unaligned access that touches the cell *spills* it into the
  eight ``EXTRACT(word, i)`` bytes a byte memory would hold, so every
  access reads what a byte memory reads.  Nearly all of the crypto
  kernels' traffic is aligned words.
* **Reassembly folding** — loading spilled or narrowly stored bytes back
  must return the word they were cut from, not a tower of shifts and ORs,
  or round-tripped values (chacha20's block counter, spilled temporaries)
  would look like fresh opaque terms and equality-based simplification
  would die.  :meth:`SymMemory._assemble` detects the pattern and
  reassembles.  An aligned word assembled from bytes is cached until one
  of its bytes is stored to or rolled back, so a kernel that reloads an
  unchanged secret word builds its term once.
* **Speculation journaling** — the explorer snapshots memory when it forces
  a misprediction and rolls the cells back at squash while keeping the
  observer trace.  A journal per speculation frame of the word cells and
  bytes it overwrote makes that O(cells written under speculation), not
  O(memory).
* **The image in place** — the program's
  :class:`~repro.isa.instructions.MemoryImage` is read where it lies, as
  :class:`repro.memory.main_memory.MainMemory` reads it: building a memory
  copies nothing, and the memory holds only what was stored since.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.isa.instructions import MemoryImage
from repro.isa.opcodes import WORD_MASK
from repro.verify.expr import Expr, SymbolicDomain, Term, evaluate

_MISSING = object()
_ALIGN = WORD_MASK ^ 7          # address -> its aligned word's address


class SymMemory:
    """Sparse little-endian memory over symbolic terms.

    ``initial`` (a program's :class:`~repro.isa.instructions.MemoryImage`,
    or a ``{byte address: byte}`` dict, converted once) is read in place;
    ``overrides`` (``{byte address: byte term}``, such as a target's secret
    bytes) wins over it, and stores go to word cells and bytes that win
    over both.  A word cell shadows whatever bytes lie beneath it.
    """

    def __init__(self, initial: Optional[Mapping] = None,
                 overrides: Optional[Mapping] = None):
        self._image = initial if isinstance(initial, MemoryImage) \
            else MemoryImage.from_dict(initial or {})
        self._words: dict = {}       # {aligned address: 8-byte term}
        self._bytes: dict = dict(overrides or {})  # {address: byte term}
        # {aligned address: word read from bytes}, read only where no word
        # cell lies; a cell leaves by a spill or a rollback, which both
        # drop the entry beneath it.
        self._assembled: dict = {}
        # Stack of journals, one per open speculation frame: each is a
        # ({aligned address: previous word}, {address: previous byte})
        # pair, _MISSING where the frame created the cell.
        self._journals: list = []

    # ------------------------------------------------------------- access
    def load(self, address: int, size: int) -> Term:
        if size == 8 and not address & 7:
            word = self._words.get(address, _MISSING)
            if word is _MISSING:
                word = self._assembled.get(address, _MISSING)
                if word is _MISSING:
                    word = self._assembled[address] = \
                        self._assemble(address, 8)
            return word
        self._spill(address, size)
        return self._assemble(address, size)

    def store(self, address: int, value: Term, size: int) -> None:
        journal = self._journals[-1] if self._journals else None
        if size == 8 and not address & 7:
            words = self._words
            if journal is not None and address not in journal[0]:
                journal[0][address] = words.get(address, _MISSING)
            words[address] = value
            return
        self._spill(address, size)
        self._store_bytes(address, value, size, journal)

    def byte(self, address: int) -> Term:
        address &= WORD_MASK
        word = self._words.get(address & _ALIGN, _MISSING)
        if word is not _MISSING:
            return SymbolicDomain.extract(word, address & 7)
        return self._parts(address, 1)[0]

    def _store_bytes(self, address: int, value: Term, size: int,
                     journal) -> None:
        data = self._bytes
        extract = SymbolicDomain.extract
        for offset in range(size):
            key = (address + offset) & WORD_MASK
            if journal is not None and key not in journal[1]:
                journal[1][key] = data.get(key, _MISSING)
            data[key] = extract(value, offset)
        assembled = self._assembled
        if assembled:
            assembled.pop(address & _ALIGN, None)
            assembled.pop((address + size - 1) & _ALIGN, None)

    def _spill(self, address: int, size: int) -> None:
        """Split the word cells an access of ``size`` bytes at ``address``
        touches into their eight ``extract`` bytes."""
        words = self._words
        if not words:
            return
        first = address & _ALIGN
        last = (address + size - 1) & _ALIGN
        for base in (first,) if first == last else (first, last):
            word = words.pop(base, _MISSING)
            if word is _MISSING:
                continue
            journal = self._journals[-1] if self._journals else None
            if journal is not None and base not in journal[0]:
                journal[0][base] = word
            self._store_bytes(base, word, 8, journal)

    def _parts(self, address: int, size: int) -> list:
        """The byte terms at ``address``.., where no word cell lies."""
        image = self._image.read(address, size)
        if image is None:       # across a segment's edge or the 2^64 wrap
            get = self._image.get
            parts = [get((address + offset) & WORD_MASK, 0)
                     for offset in range(size)]
        else:
            parts = list(image) if image else [0] * size
        data = self._bytes
        if data:
            for offset in range(size):
                byte = data.get((address + offset) & WORD_MASK, _MISSING)
                if byte is not _MISSING:
                    parts[offset] = byte
        return parts

    def _assemble(self, address: int, size: int) -> Term:
        parts = self._parts(address, size)
        if all(isinstance(p, int) for p in parts):
            value = 0
            for offset, byte in enumerate(parts):
                value |= byte << (8 * offset)
            return value
        reassembled = self._reassemble(parts, size)
        if reassembled is not None:
            return reassembled
        d = SymbolicDomain
        value: Term = 0
        for offset, byte in enumerate(parts):
            value = d.or_(value, d.sll(byte, 8 * offset))
        return value

    @staticmethod
    def _reassemble(parts: list, size: int) -> Optional[Term]:
        """Fold ``EXTRACT(base, 0..size-1)`` byte runs back into ``base``."""
        first = parts[0]
        if isinstance(first, Expr) and first.op == "EXTRACT":
            base, index = first.args
        elif isinstance(first, Expr) and first.hi <= 0xFF:
            # A bare byte-sized term stored with SB reads back as itself.
            base, index = first, 0
            if size == 1:
                return first
        else:
            return None
        if index != 0:
            return None
        for offset in range(1, size):
            part = parts[offset]
            if isinstance(part, Expr) and part.op == "EXTRACT" \
                    and part.args[1] == offset and part.args[0] is base:
                continue
            if part == 0 and base.hi < 1 << (8 * offset):
                continue          # high byte folded to 0 at store time
            return None
        if size == 8 or base.hi < 1 << (8 * size):
            return base
        return None

    # -------------------------------------------------------- speculation
    def begin_speculation(self) -> None:
        """Open a rollback frame; stores are journaled until rollback."""
        self._journals.append(({}, {}))

    def rollback(self) -> None:
        """Undo every store since the matching :meth:`begin_speculation`."""
        words_journal, bytes_journal = self._journals.pop()
        assembled = self._assembled
        for cells, journal in ((self._words, words_journal),
                               (self._bytes, bytes_journal)):
            for key, previous in journal.items():
                if previous is _MISSING:
                    cells.pop(key, None)     # a spill may have taken it
                else:
                    cells[key] = previous
                assembled.pop(key & _ALIGN, None)

    def copy(self) -> "SymMemory":
        """A memory holding what this one holds, outside speculation; the
        two share only the image, which neither writes."""
        clone = SymMemory(self._image, self._bytes)
        clone._words = dict(self._words)
        return clone

    # -------------------------------------------------------- diagnostics
    @property
    def speculation_depth(self) -> int:
        return len(self._journals)

    def concretise(self, env: dict) -> dict:
        """Fully concrete byte image under ``env`` (for witness replay)."""
        memory = dict(self._image.items())
        memory.update((k, v if isinstance(v, int) else evaluate(v, env))
                      for k, v in self._bytes.items())
        for base, word in self._words.items():
            value = word if isinstance(word, int) else evaluate(word, env)
            for offset in range(8):
                memory[base + offset] = (value >> (8 * offset)) & 0xFF
        return memory
