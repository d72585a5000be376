"""The symbolic expression layer of the relational leak checker.

A *term* is either a plain Python int (a fully concrete 64-bit value) or an
:class:`Expr` node containing at least one secret-byte variable.  Keeping
concrete values as raw ints means the symbolic interpreter pays nothing for
the (overwhelmingly common) public computation: expression nodes only ever
appear downstream of a secret byte.

:class:`SymbolicDomain` implements the same value-domain protocol as
:class:`repro.isa.semantics.ConcreteDomain`, so the shared per-opcode
semantics tables execute unchanged over symbolic terms.  Construction is
*simplifying*: every smart constructor constant-folds (all-int operands
delegate straight to the concrete domain), applies algebraic identities
(``x ^ x = 0``, ``a & 0 = 0``, masking a value that already fits, …), and
propagates unsigned **intervals** so that comparisons and line-granular
address projections resolve to concrete values whenever the secret cannot
actually change them.  No external SMT solver is involved: the checker's
verdict is ``leak`` exactly when a *simplified* observation still contains
a secret variable.

Evaluation (:func:`evaluate`) and variable collection (:func:`variables`)
are iterative (explicit stack, memoised by node identity) so deep dataflow
chains — a sorting network over symbolic keys, say — cannot hit Python's
recursion limit.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.isa.opcodes import WORD_MASK
from repro.isa.semantics import ConcreteDomain as _C

Term = Union[int, "Expr"]

_BYTE = 0xFF


def _is_low_ones(mask: int) -> bool:
    """True for 0b0...01...1 masks (2**k - 1)."""
    return mask & (mask + 1) == 0


class Expr:
    """One symbolic node: an operator over int/Expr operands.

    ``lo``/``hi`` bound the node's value as a 64-bit *unsigned* integer —
    sound for every reachable assignment of the secret bytes, used by the
    constructors to discharge comparisons and shifts without solving.
    Nodes are immutable; structural equality and the hash are cached.
    """

    __slots__ = ("op", "args", "lo", "hi", "_hash")

    def __init__(self, op: str, args: tuple, lo: int = 0,
                 hi: int = WORD_MASK):
        self.op = op
        self.args = args
        self.lo = lo
        self.hi = hi
        self._hash = hash((op,) + tuple(
            a._hash if isinstance(a, Expr) else a for a in args))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return False
        if self._hash != other._hash or self.op != other.op or \
                len(self.args) != len(other.args):
            return False
        return all(a == b for a, b in zip(self.args, other.args))

    def __repr__(self) -> str:
        return render(self, max_depth=6)


def var(set_id: str, index: int) -> Expr:
    """A symbolic secret byte: byte ``index`` of secret-var set ``set_id``."""
    return Expr("VAR", (set_id, index), 0, _BYTE)


def bounds(term: Term) -> tuple:
    """Unsigned (lo, hi) interval of a term."""
    if isinstance(term, int):
        return term, term
    return term.lo, term.hi


def _hull(op: str, args: tuple, lo: int, hi: int) -> Expr:
    return Expr(op, args, lo, hi)


class SymbolicDomain:
    """The pluggable value domain over int-or-Expr terms.

    Implements the same protocol as
    :class:`repro.isa.semantics.ConcreteDomain`; the shared semantics
    tables built by :func:`repro.isa.semantics.build_alu_table` /
    ``build_branch_table`` run over this domain unmodified.  Branch
    predicates return Python bools when the interval analysis (or constant
    folding) decides them, and 0/1-valued :class:`Expr` nodes otherwise —
    a predicate that *stays* an Expr is exactly a secret-dependent branch.
    """

    name = "symbolic"

    # ------------------------------------------------------------ basics
    @staticmethod
    def const(value: int) -> int:
        return value & WORD_MASK

    @staticmethod
    def add(a: Term, b: Term) -> Term:
        if isinstance(a, int) and isinstance(b, int):
            return _C.add(a, b)
        if b == 0:
            return a
        if a == 0:
            return b
        (alo, ahi), (blo, bhi) = bounds(a), bounds(b)
        if ahi + bhi <= WORD_MASK:
            return _hull("ADD", (a, b), alo + blo, ahi + bhi)
        return _hull("ADD", (a, b), 0, WORD_MASK)

    @staticmethod
    def sub(a: Term, b: Term) -> Term:
        if isinstance(a, int) and isinstance(b, int):
            return _C.sub(a, b)
        if b == 0:
            return a
        if isinstance(a, Expr) and a == b:
            return 0
        (alo, ahi), (blo, bhi) = bounds(a), bounds(b)
        if alo >= bhi:
            return _hull("SUB", (a, b), alo - bhi, ahi - blo)
        return _hull("SUB", (a, b), 0, WORD_MASK)

    @staticmethod
    def and_(a: Term, b: Term) -> Term:
        if isinstance(a, int) and isinstance(b, int):
            return a & b
        if a == 0 or b == 0:
            return 0
        if isinstance(a, Expr) and a == b:
            return a
        for value, mask in ((a, b), (b, a)):
            if isinstance(mask, int):
                vlo, vhi = bounds(value)
                if _is_low_ones(mask) and vhi <= mask:
                    return value          # masking a value that already fits
        _, ahi = bounds(a)
        _, bhi = bounds(b)
        return _hull("AND", (a, b), 0, min(ahi, bhi))

    @staticmethod
    def or_(a: Term, b: Term) -> Term:
        if isinstance(a, int) and isinstance(b, int):
            return a | b
        if a == 0:
            return b
        if b == 0:
            return a
        if isinstance(a, Expr) and a == b:
            return a
        (alo, ahi), (blo, bhi) = bounds(a), bounds(b)
        hi = min(WORD_MASK, (1 << max(ahi.bit_length(), bhi.bit_length())) - 1)
        return _hull("OR", (a, b), max(alo, blo), hi)

    @staticmethod
    def xor(a: Term, b: Term) -> Term:
        if isinstance(a, int) and isinstance(b, int):
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        if isinstance(a, Expr) and a == b:
            return 0
        (_, ahi), (_, bhi) = bounds(a), bounds(b)
        hi = min(WORD_MASK, (1 << max(ahi.bit_length(), bhi.bit_length())) - 1)
        return _hull("XOR", (a, b), 0, hi)

    @staticmethod
    def not_(a: Term) -> Term:
        if isinstance(a, int):
            return _C.not_(a)
        return _hull("NOT", (a,), WORD_MASK - a.hi, WORD_MASK - a.lo)

    @staticmethod
    def mul(a: Term, b: Term) -> Term:
        if isinstance(a, int) and isinstance(b, int):
            return _C.mul(a, b)
        if a == 0 or b == 0:
            return 0
        if b == 1:
            return a
        if a == 1:
            return b
        (alo, ahi), (blo, bhi) = bounds(a), bounds(b)
        if ahi * bhi <= WORD_MASK:
            return _hull("MUL", (a, b), alo * blo, ahi * bhi)
        return _hull("MUL", (a, b), 0, WORD_MASK)

    @staticmethod
    def div(a: Term, b: Term) -> Term:
        if isinstance(a, int) and isinstance(b, int):
            return _C.div(a, b)
        blo, bhi = bounds(b)
        if blo == bhi == 0:
            return WORD_MASK
        node = _hull("DIV", (a, b), 0, WORD_MASK)
        if blo == 0:          # divisor could be zero: fold the special case in
            return SymbolicDomain.ite(SymbolicDomain.eq(b, 0),
                                      WORD_MASK, node)
        return node

    @staticmethod
    def rem(a: Term, b: Term) -> Term:
        if isinstance(a, int) and isinstance(b, int):
            return _C.rem(a, b)
        blo, bhi = bounds(b)
        if blo == bhi == 0:
            return a
        node = _hull("REM", (a, b), 0, WORD_MASK)
        if blo == 0:
            return SymbolicDomain.ite(SymbolicDomain.eq(b, 0), a, node)
        return node

    # ------------------------------------------------------------ shifts
    @staticmethod
    def sll(a: Term, b: Term) -> Term:
        if isinstance(a, int) and isinstance(b, int):
            return _C.sll(a, b)
        if isinstance(b, int):
            shift = b & 63
            if shift == 0:
                return a
            if a == 0:
                return 0
            alo, ahi = bounds(a)
            if ahi << shift <= WORD_MASK:
                return _hull("SLL", (a, shift), alo << shift, ahi << shift)
            return _hull("SLL", (a, shift), 0, WORD_MASK)
        return _hull("SLL", (a, b), 0, WORD_MASK)

    @staticmethod
    def srl(a: Term, b: Term) -> Term:
        if isinstance(a, int) and isinstance(b, int):
            return _C.srl(a, b)
        if isinstance(b, int):
            shift = b & 63
            if shift == 0:
                return a
            alo, ahi = bounds(a)
            if alo >> shift == ahi >> shift:
                # The secret cannot move the result (e.g. every reachable
                # address lands in one cache line).
                return alo >> shift
            return _hull("SRL", (a, shift), alo >> shift, ahi >> shift)
        _, ahi = bounds(a)
        return _hull("SRL", (a, b), 0, ahi)

    @staticmethod
    def sra(a: Term, b: Term) -> Term:
        if isinstance(a, int) and isinstance(b, int):
            return _C.sra(a, b)
        alo, ahi = bounds(a)
        if ahi < 1 << 63 and isinstance(b, int):
            return SymbolicDomain.srl(a, b)     # non-negative: same as SRL
        return _hull("SRA", (a, b) if isinstance(b, Expr) else (a, b & 63),
                     0, WORD_MASK)

    @staticmethod
    def rotl(a: Term, shift: int) -> Term:
        if isinstance(a, int):
            return _C.rotl(a, shift)
        shift &= 63
        if shift == 0:
            return a
        if a.hi << shift <= WORD_MASK:          # no wrap: same as SLL
            return SymbolicDomain.sll(a, shift)
        return _hull("ROTL", (a, shift), 0, WORD_MASK)

    @staticmethod
    def rotr(a: Term, shift: int) -> Term:
        if isinstance(a, int):
            return _C.rotr(a, shift)
        shift &= 63
        if shift == 0:
            return a
        if a.hi >> shift == a.lo >> shift and a.lo & ((1 << shift) - 1) == 0 \
                and a.hi & ((1 << shift) - 1) == 0 and a.lo == a.hi:
            return _C.rotr(a.lo, shift)
        return _hull("ROTR", (a, shift), 0, WORD_MASK)

    # ----------------------------------------------------- comparisons
    @staticmethod
    def _unsigned_decide(a: Term, b: Term) -> Optional[bool]:
        """Decide ``a < b`` (unsigned) from intervals, or None."""
        (alo, ahi), (blo, bhi) = bounds(a), bounds(b)
        if ahi < blo:
            return True
        if alo >= bhi:
            return False
        return None

    @staticmethod
    def _signed_ok(a: Term, b: Term) -> bool:
        """Both operands provably non-negative as signed 64-bit values."""
        return bounds(a)[1] < 1 << 63 and bounds(b)[1] < 1 << 63

    @staticmethod
    def slt(a: Term, b: Term) -> Term:
        if isinstance(a, int) and isinstance(b, int):
            return _C.slt(a, b)
        if SymbolicDomain._signed_ok(a, b):
            decided = SymbolicDomain._unsigned_decide(a, b)
            if decided is not None:
                return int(decided)
        return _hull("SLT", (a, b), 0, 1)

    @staticmethod
    def sltu(a: Term, b: Term) -> Term:
        if isinstance(a, int) and isinstance(b, int):
            return _C.sltu(a, b)
        decided = SymbolicDomain._unsigned_decide(a, b)
        if decided is not None:
            return int(decided)
        return _hull("SLTU", (a, b), 0, 1)

    # Branch predicates: bool when decided, 0/1-valued Expr otherwise.
    @staticmethod
    def eq(a: Term, b: Term) -> Union[bool, Expr]:
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        if isinstance(a, Expr) and a == b:
            return True
        (alo, ahi), (blo, bhi) = bounds(a), bounds(b)
        if ahi < blo or bhi < alo:
            return False
        return _hull("EQ", (a, b), 0, 1)

    @staticmethod
    def ne(a: Term, b: Term) -> Union[bool, Expr]:
        decided = SymbolicDomain.eq(a, b)
        if isinstance(decided, bool):
            return not decided
        return _hull("NE", (a, b), 0, 1)

    @staticmethod
    def lt(a: Term, b: Term) -> Union[bool, Expr]:
        if isinstance(a, int) and isinstance(b, int):
            return _C.lt(a, b)
        if SymbolicDomain._signed_ok(a, b):
            decided = SymbolicDomain._unsigned_decide(a, b)
            if decided is not None:
                return decided
        return _hull("LT", (a, b), 0, 1)

    @staticmethod
    def ge(a: Term, b: Term) -> Union[bool, Expr]:
        decided = SymbolicDomain.lt(a, b)
        if isinstance(decided, bool):
            return not decided
        return _hull("GE", (a, b), 0, 1)

    @staticmethod
    def ltu(a: Term, b: Term) -> Union[bool, Expr]:
        if isinstance(a, int) and isinstance(b, int):
            return _C.ltu(a, b)
        decided = SymbolicDomain._unsigned_decide(a, b)
        if decided is not None:
            return decided
        return _hull("LTU", (a, b), 0, 1)

    @staticmethod
    def geu(a: Term, b: Term) -> Union[bool, Expr]:
        decided = SymbolicDomain.ltu(a, b)
        if isinstance(decided, bool):
            return not decided
        return _hull("GEU", (a, b), 0, 1)

    # ------------------------------------------------- structure helpers
    @staticmethod
    def ite(cond: Union[bool, Expr], then: Term, other: Term) -> Term:
        if isinstance(cond, bool):
            return then if cond else other
        if isinstance(cond, int):
            return then if cond else other
        if then == other if isinstance(then, Expr) else then == other:
            return then
        (tlo, thi), (olo, ohi) = bounds(then), bounds(other)
        return _hull("ITE", (cond, then, other), min(tlo, olo),
                     max(thi, ohi))

    @staticmethod
    def extract(value: Term, index: int) -> Term:
        """Byte ``index`` of a 64-bit term (little-endian)."""
        if isinstance(value, int):
            return (value >> (8 * index)) & _BYTE
        if index and value.hi < 1 << (8 * index):
            return 0
        if index == 0 and value.hi <= _BYTE:
            return value
        return _hull("EXTRACT", (value, index), 0, _BYTE)


# ----------------------------------------------------------------- analysis
_EVAL_BINARY = {
    "ADD": _C.add, "SUB": _C.sub, "AND": _C.and_, "OR": _C.or_,
    "XOR": _C.xor, "MUL": _C.mul, "DIV": _C.div, "REM": _C.rem,
    "SLL": _C.sll, "SRL": _C.srl, "SRA": _C.sra,
    "ROTL": _C.rotl, "ROTR": _C.rotr,
    "SLT": _C.slt, "SLTU": _C.sltu,
    "EQ": lambda a, b: int(a == b), "NE": lambda a, b: int(a != b),
    "LT": lambda a, b: int(_C.lt(a, b)), "GE": lambda a, b: int(_C.ge(a, b)),
    "LTU": lambda a, b: int(a < b), "GEU": lambda a, b: int(a >= b),
    "EXTRACT": lambda v, i: (v >> (8 * i)) & _BYTE,
}


def evaluate(term: Term, env: dict) -> int:
    """Concrete value of ``term`` under ``env``: {(set_id, index): byte}.

    Unbound variables read as 0.  Iterative post-order with an identity
    memo, so shared sub-DAGs are evaluated once and deep chains cannot
    overflow the Python stack.
    """
    if isinstance(term, int):
        return term
    memo: dict = {}
    stack = [term]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        if node.op == "VAR":
            memo[id(node)] = env.get(node.args, 0) & _BYTE
            stack.pop()
            continue
        pending = [a for a in node.args
                   if isinstance(a, Expr) and id(a) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        values = [memo[id(a)] if isinstance(a, Expr) else a
                  for a in node.args]
        if node.op == "ITE":
            cond, then, other = values
            memo[id(node)] = then if cond else other
        elif node.op == "NOT":
            memo[id(node)] = _C.not_(values[0])
        else:
            memo[id(node)] = _EVAL_BINARY[node.op](values[0], values[1])
    return memo[id(term)]


def variables(term: Term) -> frozenset:
    """All (set_id, index) secret-byte variables occurring in ``term``."""
    if isinstance(term, int):
        return frozenset()
    found = set()
    seen = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op == "VAR":
            found.add(node.args)
            continue
        stack.extend(a for a in node.args if isinstance(a, Expr))
    return frozenset(found)


def secret_bytes(term: Term) -> tuple:
    """Sorted byte indices of the secret variables in ``term``."""
    return tuple(sorted({index for _set, index in variables(term)}))


def rename(term: Term, set_id: str) -> Term:
    """``term`` with every variable moved into variable set ``set_id``.

    Materialises the two runs of the self-composition: the same symbolic
    trace instantiated once per secret-variable set.
    """
    if isinstance(term, int):
        return term
    memo: dict = {}
    stack = [term]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        if node.op == "VAR":
            memo[id(node)] = var(set_id, node.args[1])
            stack.pop()
            continue
        pending = [a for a in node.args
                   if isinstance(a, Expr) and id(a) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        args = tuple(memo[id(a)] if isinstance(a, Expr) else a
                     for a in node.args)
        memo[id(node)] = Expr(node.op, args, node.lo, node.hi)
    return memo[id(term)]


def render(term: Term, max_depth: int = 8) -> str:
    """Human-readable rendering, depth-capped for very deep terms."""
    if isinstance(term, int):
        return hex(term) if term > 9 else str(term)
    if term.op == "VAR":
        return f"{term.args[0]}[{term.args[1]}]"
    if max_depth <= 0:
        return "…"
    inner = ", ".join(
        render(a, max_depth - 1) if isinstance(a, Expr) else
        (hex(a) if isinstance(a, int) and a > 9 else str(a))
        for a in term.args)
    return f"{term.op.lower()}({inner})"


def size(term: Term) -> int:
    """Distinct node count of a term's DAG (diagnostics)."""
    if isinstance(term, int):
        return 0
    seen = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(a for a in node.args if isinstance(a, Expr))
    return len(seen)
