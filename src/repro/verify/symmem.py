"""Byte-granular symbolic memory for the bounded symbolic explorer.

Mirrors :class:`repro.isa.interpreter.ArchState`'s memory exactly — a sparse
``{byte address: byte}`` mapping with little-endian multi-byte access and
2^64 address wrap — except each byte may be a symbolic term (an
:class:`repro.verify.expr.Expr` with interval ``[0, 255]``) instead of an
int.  Addresses themselves are always concrete here: a *symbolic* address is
a leak by definition and the explorer reports it before ever reaching this
layer.

Two things matter for precision:

* **Reassembly folding** — storing a symbolic word writes eight
  ``EXTRACT(word, i)`` bytes; loading them back must return ``word`` itself,
  not a tower of shifts and ORs, or round-tripped values (chacha20's block
  counter, spilled temporaries) would look like fresh opaque terms and
  equality-based simplification would die.  :meth:`SymMemory.load` detects
  the pattern and reassembles.
* **Speculation journaling** — the explorer snapshots memory when it forces
  a misprediction and rolls the bytes back at squash while keeping the
  observer trace.  A write journal per speculation frame makes that O(bytes
  written under speculation), not O(memory).
"""

from __future__ import annotations

from typing import Optional

from repro.isa.opcodes import WORD_MASK
from repro.verify.expr import Expr, SymbolicDomain, Term

_MISSING = object()


class SymMemory:
    """Sparse little-endian byte memory over symbolic byte terms."""

    def __init__(self, initial: Optional[dict] = None):
        # {address: int | Expr}; absent addresses read as 0, like ArchState.
        self._bytes: dict = dict(initial) if initial else {}
        # Stack of journals, one per open speculation frame:
        # each is {address: previous byte or _MISSING}.
        self._journals: list = []

    # ------------------------------------------------------------- access
    def load(self, address: int, size: int) -> Term:
        data = self._bytes
        parts = [data.get((address + offset) & WORD_MASK, 0)
                 for offset in range(size)]
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

    def store(self, address: int, value: Term, size: int) -> None:
        data = self._bytes
        journal = self._journals[-1] if self._journals else None
        d = SymbolicDomain
        for offset in range(size):
            key = (address + offset) & WORD_MASK
            if journal is not None and key not in journal:
                journal[key] = data.get(key, _MISSING)
            data[key] = d.extract(value, offset)

    def byte(self, address: int) -> Term:
        return self._bytes.get(address & WORD_MASK, 0)

    # -------------------------------------------------------- speculation
    def begin_speculation(self) -> None:
        """Open a rollback frame; stores are journaled until commit/rollback."""
        self._journals.append({})

    def rollback(self) -> None:
        """Undo every store since the matching :meth:`begin_speculation`."""
        journal = self._journals.pop()
        data = self._bytes
        for key, previous in journal.items():
            if previous is _MISSING:
                data.pop(key, None)
            else:
                data[key] = previous
        # A nested frame's writes belong to the outer frame too.
        if self._journals:
            outer = self._journals[-1]
            for key, previous in journal.items():
                outer.setdefault(key, previous)

    def commit(self) -> None:
        """Close the innermost frame, keeping its writes."""
        journal = self._journals.pop()
        if self._journals:
            outer = self._journals[-1]
            for key, previous in journal.items():
                outer.setdefault(key, previous)

    # -------------------------------------------------------- diagnostics
    @property
    def speculation_depth(self) -> int:
        return len(self._journals)

    def concretise(self, env: dict) -> dict:
        """Fully concrete byte image under ``env`` (for witness replay)."""
        from repro.verify.expr import evaluate
        return {k: (v if isinstance(v, int) else evaluate(v, env))
                for k, v in self._bytes.items()}
