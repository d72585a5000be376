"""Bounded symbolic execution with always-mispredict speculation.

The explorer runs a program over :class:`repro.verify.expr.SymbolicDomain`
— the same per-opcode semantics tables the concrete interpreter executes,
built over symbolic terms — with secret bytes as free variables, and applies
the *always-mispredict* speculation semantics of pitchfork's specvex: at
every resolved conditional branch it additionally executes the wrong path
for up to ``spec_window`` instructions before rolling architectural effects
back, and at every indirect jump it explores every previously-seen alternate
target of the same static instruction (the within-run BTB mistraining that
the ``nonspec-secret`` attack relies on).  This over-approximates every
concrete predictor the pipeline can be configured with: whatever a real
predictor mispredicts, always-mispredict also explores.

**Leak condition.**  The checker decides speculative non-interference by
self-composition: two runs with distinct secret-variable sets must produce
syntactically equal observer traces.  Because the two symbolic runs are the
*same* term graph modulo variable naming, trace inequality is equivalent to
a single run producing an observation whose simplified term still contains
a secret variable.  Observations mirror the concrete attacker model
(:mod:`repro.security.observer`): cache-line addresses of loads and stores
(line-granular — a secret-dependent address that provably stays inside one
line is not a cache leak), conditional-branch outcomes, and indirect-jump
targets, on the architectural path *and* on every explored transient path.

**Bounds.**  ``spec_window`` (transient instructions per misprediction) and
``spec_depth`` (misprediction nesting) bound the exploration; a ``safe``
verdict means safe *up to those bounds* — see DESIGN.md §7 for what that
under-approximates.  Separate instruction budgets make the run total; a
budget exhaustion downgrades ``safe`` to ``unknown`` (never to ``leak``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.isa.instructions import Program
from repro.isa.opcodes import Kind, NUM_ARCH_REGS, WORD_MASK
from repro.isa.semantics import (build_alu_table, build_branch_table,
                                 build_effective_address)
from repro.verify.expr import (Expr, SymbolicDomain, Term, evaluate,
                               secret_bytes)
from repro.verify.symmem import SymMemory

_ALU = build_alu_table(SymbolicDomain)
_BRANCH = build_branch_table(SymbolicDomain)
_EA = build_effective_address(SymbolicDomain)

LINE_SHIFT = 6                  # 64-byte cache lines, as everywhere else

# Observation kinds (aligned with the concrete observer's channels).
OBS_LOAD_LINE = "load-line"
OBS_STORE_LINE = "store-line"
OBS_BRANCH = "branch-taken"
OBS_JUMP_TARGET = "jump-target"

# A symbolic load/store address confined to one cache line is not a cache
# leak, but the *value* read then depends on the secret: the explorer muxes
# the possible cells into an ITE chain, up to this many candidate addresses.
_MUX_LIMIT = 256

# Decoded instruction classes: the first field of a program row.
(_K_ALU, _K_LOAD, _K_STORE, _K_BRANCH, _K_JUMP, _K_JUMP_REG, _K_NOP,
 _K_HALT) = range(8)
_CLASS = {Kind.ALU: _K_ALU, Kind.ALU_IMM: _K_ALU, Kind.MOVE: _K_ALU,
          Kind.LOAD_IMM: _K_ALU, Kind.LOAD: _K_LOAD, Kind.STORE: _K_STORE,
          Kind.BRANCH: _K_BRANCH, Kind.JUMP: _K_JUMP,
          Kind.JUMP_REG: _K_JUMP_REG, Kind.NOP: _K_NOP, Kind.HALT: _K_HALT}
# Writes to x0 land in this extra register, so x0 always reads 0.
_SINK = NUM_ARCH_REGS


def _decode(program: Program) -> list:
    """One row per static instruction, indexed by PC: ``(class, semantics
    function, rd, rs1, rs2, imm, access size)``.

    The function is the ALU or branch table entry (None for other
    classes); ``rd`` is :data:`_SINK` for instructions that write x0 or
    nothing.
    """
    rows = []
    for inst in program.instructions:
        info = inst.info
        cls = _CLASS[info.kind]
        fn = _ALU[inst.op] if cls == _K_ALU else \
            _BRANCH[inst.op] if cls == _K_BRANCH else None
        rows.append((cls, fn, inst.rd or _SINK, inst.rs1, inst.rs2,
                     inst.imm, info.mem_size))
    return rows


class _Abort(Exception):
    """Internal: stop all exploration (leak quota or budget reached)."""


@dataclass(frozen=True)
class LeakObservation:
    """One secret-dependent attacker observation (self-composition diverges).

    ``term`` is the simplified symbolic value that reached the observer;
    ``secret`` names the responsible secret-byte indices.
    """

    kind: str                   # OBS_* above
    pc: int                     # static instruction index of the observation
    depth: int                  # 0 = architectural, >0 = transient nesting
    term: Term
    secret: tuple               # sorted secret-byte indices in the term

    @property
    def speculative(self) -> bool:
        return self.depth > 0


@dataclass
class ExplorationStats:
    """Work counters for one exploration."""

    retired: int = 0            # architectural instructions executed
    explored: int = 0           # transient (wrong-path) instructions executed
    windows: int = 0            # speculation windows opened
    branches: int = 0           # dynamic conditional branches seen


@dataclass
class ExplorerResult:
    """Outcome of one bounded symbolic exploration."""

    verdict: str                # "safe" | "leak" | "unknown"
    leaks: tuple                # LeakObservation, discovery order
    complete: bool              # exploration exhausted within the budgets
    halted: bool                # the architectural path reached HALT
    stats: ExplorationStats = field(default_factory=ExplorationStats)


class SpeculativeExplorer:
    """One-shot symbolic executor for a program + symbolic initial memory.

    The caller supplies ``memory`` with secret bytes already replaced by
    variables (see :mod:`repro.verify.targets`); registers start at zero,
    exactly like :class:`repro.isa.interpreter.ArchState`.
    """

    def __init__(self, program: Program, memory: SymMemory, *,
                 spec_window: int = 32, spec_depth: int = 1,
                 max_instructions: int = 400_000,
                 max_explored: int = 2_000_000,
                 max_leaks: int = 8):
        self.program = program
        self.memory = memory
        self.spec_window = spec_window
        self.spec_depth = spec_depth
        self.max_instructions = max_instructions
        self.max_explored = max_explored
        self.max_leaks = max_leaks

        self.rows = _decode(program)
        self.regs: list = [0] * (NUM_ARCH_REGS + 1)
        self.stats = ExplorationStats()
        self.leaks: list = []
        self._leak_sites: set = set()        # (pc, kind) dedup
        self._jump_targets: dict = {}        # static pc -> seen targets
        self._incomplete_reason: Optional[str] = None
        self._halted = False

    # --------------------------------------------------------------- driver
    def run(self) -> ExplorerResult:
        rows = self.rows
        length = len(rows)
        stats = self.stats
        pc = 0
        try:
            while stats.retired < self.max_instructions:
                if not 0 <= pc < length:
                    self._incomplete_reason = f"PC {pc} left the program"
                    break
                row = rows[pc]
                stats.retired += 1
                if row[0] == _K_HALT:
                    self._halted = True
                    break
                pc = self._step(row, pc, 0)
            else:
                self._incomplete_reason = (
                    f"architectural budget ({self.max_instructions}) "
                    f"exhausted")
        except _Abort:
            pass
        complete = (self._halted and self._incomplete_reason is None
                    and not self._over_quota())
        if self.leaks:
            verdict = "leak"
        elif complete:
            verdict = "safe"
        else:
            verdict = "unknown"
        return ExplorerResult(verdict, tuple(self.leaks), complete,
                              self._halted, self.stats)

    def _over_quota(self) -> bool:
        return (len(self.leaks) >= self.max_leaks
                or self.stats.explored >= self.max_explored)

    # ----------------------------------------------------------------- step
    def _step(self, row: tuple, pc: int, depth: int) -> int:
        """Execute one decoded instruction at ``depth``; returns the next PC.

        Raises ``_Abort`` to stop everything, ``_EndWindow`` never — a
        transient path that must end mid-window signals it by returning a
        PC outside the program, which the window loop treats as done.
        """
        cls, fn, rd, rs1, rs2, imm, size = row
        regs = self.regs

        if cls == _K_ALU:
            regs[rd] = fn(regs[rs1], regs[rs2], imm)
            return pc + 1

        if cls == _K_LOAD:
            address = _EA(regs[rs1], imm)
            if isinstance(address, Expr):
                regs[rd] = self._symbolic_access(address, size, pc, depth,
                                                 store=False)
            else:
                regs[rd] = self.memory.load(address, size)
            return pc + 1

        if cls == _K_STORE:
            address = _EA(regs[rs1], imm)
            if isinstance(address, Expr):
                self._symbolic_access(address, size, pc, depth, store=True,
                                      data=regs[rs2])
            else:
                self.memory.store(address, regs[rs2], size)
            return pc + 1

        if cls == _K_BRANCH:
            self.stats.branches += 1
            taken = fn(regs[rs1], regs[rs2])
            if isinstance(taken, Expr):
                # The branch outcome itself depends on the secret: the PC
                # sequence (and every predictor update) diverges.
                self._leak(OBS_BRANCH, pc, taken, depth)
                taken = bool(evaluate(taken, {}))
            elif depth < self.spec_depth:
                # Always-mispredict: explore the wrong direction.
                wrong = pc + 1 if taken else imm
                self._window(wrong, depth + 1)
            return imm if taken else pc + 1

        if cls == _K_JUMP:
            regs[rd] = pc + 1
            return imm

        if cls == _K_JUMP_REG:
            d = SymbolicDomain
            target = d.add(regs[rs1], d.const(imm))
            if isinstance(target, Expr):
                self._leak(OBS_JUMP_TARGET, pc, target, depth)
                target = evaluate(target, {}) & WORD_MASK
            elif depth < self.spec_depth:
                # BTB-style target misprediction: any previously-seen
                # target of this static jump may be fetched instead.
                for alternate in sorted(
                        self._jump_targets.get(pc, set()) - {target}):
                    self._window(alternate, depth + 1)
            if depth == 0:
                self._jump_targets.setdefault(pc, set()).add(target)
            regs[rd] = pc + 1
            return target

        if cls == _K_NOP:
            return pc + 1
        raise RuntimeError(f"unhandled class {cls}")      # pragma: no cover

    # ---------------------------------------------------------- speculation
    def _window(self, pc: int, depth: int) -> None:
        """Execute a transient window at ``pc``, then roll everything back."""
        if self.stats.explored >= self.max_explored:
            self._incomplete_reason = (
                f"transient budget ({self.max_explored}) exhausted")
            raise _Abort
        stats = self.stats
        stats.windows += 1
        rows = self.rows
        length = len(rows)
        saved_regs = self.regs[:]
        leaks_before = len(self.leaks)
        self.memory.begin_speculation()
        try:
            for _ in range(self.spec_window):
                if not 0 <= pc < length:
                    break                    # transient fetch fault: squash
                row = rows[pc]
                if row[0] == _K_HALT:
                    break
                stats.explored += 1
                if stats.explored >= self.max_explored:
                    self._incomplete_reason = (
                        f"transient budget ({self.max_explored}) exhausted")
                    raise _Abort
                pc = self._step(row, pc, depth)
                if len(self.leaks) > leaks_before:
                    break    # this path already diverged; the window is done
        finally:
            self.memory.rollback()
            self.regs[:] = saved_regs     # in place: callers hold the list

    # --------------------------------------------------------------- memory
    def _symbolic_access(self, address: Expr, size: int, pc: int,
                         depth: int, *, store: bool, data: Term = 0) -> Term:
        """Observe + perform one access through a symbolic address;
        returns the loaded value.  (A concrete address observes nothing
        secret: the step reads or writes memory directly.)

        The access muxes the candidate cells.  That is sound for narrow
        address intervals (a secret-indexed access inside one cache line);
        wide intervals fall back to a zero-secret concretisation, which is
        only reached after the address already produced a leak observation
        — precision after the verdict, not soundness, is what degrades.
        """
        d = SymbolicDomain
        line = d.srl(address, LINE_SHIFT)
        if isinstance(line, Expr):
            # The cache line touched depends on the secret — the classic
            # transmit.  Observe, then continue down a concretisation.
            self._leak(OBS_STORE_LINE if store else OBS_LOAD_LINE,
                       pc, line, depth)
        width = address.hi - address.lo + 1
        if width > _MUX_LIMIT:
            concrete = evaluate(address, {}) & WORD_MASK
            if store:
                self.memory.store(concrete, data, size)
                return 0
            return self.memory.load(concrete, size)
        if store:
            for cell in range(address.lo, address.hi + 1):
                hit = d.eq(address, cell)
                old = self.memory.load(cell, size)
                self.memory.store(cell, d.ite(hit, data, old), size)
            return 0
        value: Term = self.memory.load(address.lo, size)
        for cell in range(address.lo + 1, address.hi + 1):
            value = d.ite(d.eq(address, cell),
                          self.memory.load(cell, size), value)
        return value

    # ----------------------------------------------------------------- leak
    def _leak(self, kind: str, pc: int, term: Expr, depth: int) -> None:
        site = (pc, kind)
        if site not in self._leak_sites:
            self._leak_sites.add(site)
            self.leaks.append(
                LeakObservation(kind, pc, depth, term, secret_bytes(term)))
        if len(self.leaks) >= self.max_leaks:
            raise _Abort
