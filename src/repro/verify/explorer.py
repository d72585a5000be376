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

        self.regs: list = [0] * NUM_ARCH_REGS
        self.stats = ExplorationStats()
        self.leaks: list = []
        self._leak_sites: set = set()        # (pc, kind) dedup
        self._jump_targets: dict = {}        # static pc -> seen targets
        self._incomplete_reason: Optional[str] = None
        self._halted = False

    # --------------------------------------------------------------- driver
    def run(self) -> ExplorerResult:
        instructions = self.program.instructions
        length = len(instructions)
        pc = 0
        try:
            while self.stats.retired < self.max_instructions:
                if not 0 <= pc < length:
                    self._incomplete_reason = f"PC {pc} left the program"
                    break
                inst = instructions[pc]
                self.stats.retired += 1
                if inst.info.kind == Kind.HALT:
                    self._halted = True
                    break
                pc = self._step(inst, pc, depth=0)
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
    def _step(self, inst, pc: int, depth: int) -> int:
        """Execute one instruction at ``depth``; returns the next PC.

        Raises ``_Abort`` to stop everything, ``_EndWindow`` never — a
        transient path that must end mid-window signals it by returning a
        PC outside the program, which the window loop treats as done.
        """
        kind = inst.info.kind
        regs = self.regs
        d = SymbolicDomain

        if kind in (Kind.ALU, Kind.ALU_IMM, Kind.MOVE, Kind.LOAD_IMM):
            fn = _ALU[inst.op]
            self._write_reg(inst.rd,
                            fn(self._read_reg(inst.rs1),
                               self._read_reg(inst.rs2), inst.imm))
            return pc + 1

        if kind == Kind.LOAD:
            address = _EA(self._read_reg(inst.rs1), inst.imm)
            value = self._access(address, inst, pc, depth, store=False)
            self._write_reg(inst.rd, value)
            return pc + 1

        if kind == Kind.STORE:
            address = _EA(self._read_reg(inst.rs1), inst.imm)
            self._access(address, inst, pc, depth, store=True,
                         data=self._read_reg(inst.rs2))
            return pc + 1

        if kind == Kind.BRANCH:
            self.stats.branches += 1
            taken = _BRANCH[inst.op](self._read_reg(inst.rs1),
                                     self._read_reg(inst.rs2))
            if isinstance(taken, Expr):
                # The branch outcome itself depends on the secret: the PC
                # sequence (and every predictor update) diverges.
                self._leak(OBS_BRANCH, pc, taken, depth)
                taken = bool(evaluate(taken, {}))
            elif depth < self.spec_depth:
                # Always-mispredict: explore the wrong direction.
                wrong = pc + 1 if taken else inst.imm
                self._window(wrong, depth + 1)
            return inst.imm if taken else pc + 1

        if kind == Kind.JUMP:
            self._write_reg(inst.rd, pc + 1)
            return inst.imm

        if kind == Kind.JUMP_REG:
            target = d.add(self._read_reg(inst.rs1), d.const(inst.imm))
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
            self._write_reg(inst.rd, pc + 1)
            return target

        if kind == Kind.NOP:
            return pc + 1
        raise RuntimeError(f"unhandled kind {kind}")      # pragma: no cover

    # ---------------------------------------------------------- speculation
    def _window(self, pc: int, depth: int) -> None:
        """Execute a transient window at ``pc``, then roll everything back."""
        if self.stats.explored >= self.max_explored:
            self._incomplete_reason = (
                f"transient budget ({self.max_explored}) exhausted")
            raise _Abort
        self.stats.windows += 1
        instructions = self.program.instructions
        length = len(instructions)
        saved_regs = list(self.regs)
        leaks_before = len(self.leaks)
        self.memory.begin_speculation()
        try:
            for _ in range(self.spec_window):
                if not 0 <= pc < length:
                    break                    # transient fetch fault: squash
                inst = instructions[pc]
                if inst.info.kind == Kind.HALT:
                    break
                self.stats.explored += 1
                if self.stats.explored >= self.max_explored:
                    self._incomplete_reason = (
                        f"transient budget ({self.max_explored}) exhausted")
                    raise _Abort
                pc = self._step(inst, pc, depth)
                if len(self.leaks) > leaks_before:
                    break    # this path already diverged; the window is done
        finally:
            self.memory.rollback()
            self.regs = saved_regs

    # --------------------------------------------------------------- memory
    def _access(self, address: Term, inst, pc: int, depth: int, *,
                store: bool, data: Term = 0) -> Term:
        """Observe + perform one memory access; returns the loaded value."""
        d = SymbolicDomain
        line = d.srl(address, LINE_SHIFT)
        if isinstance(line, Expr):
            # The cache line touched depends on the secret — the classic
            # transmit.  Observe, then continue down a concretisation.
            self._leak(OBS_STORE_LINE if store else OBS_LOAD_LINE,
                       pc, line, depth)
        if isinstance(address, Expr):
            return self._mux_access(address, inst, store, data)
        if store:
            self.memory.store(address, data, inst.info.mem_size)
            return 0
        return self.memory.load(address, inst.info.mem_size)

    def _mux_access(self, address: Expr, inst, store: bool,
                    data: Term) -> Term:
        """Access through a symbolic address by muxing candidate cells.

        Sound for narrow address intervals (a secret-indexed access inside
        one cache line); wide intervals fall back to a zero-secret
        concretisation, which is only reached after the address already
        produced a leak observation — precision after the verdict, not
        soundness, is what degrades.
        """
        d = SymbolicDomain
        size = inst.info.mem_size
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

    # ------------------------------------------------------------ registers
    def _read_reg(self, index: int) -> Term:
        return 0 if index == 0 else self.regs[index]

    def _write_reg(self, index: int, value: Term) -> None:
        if index != 0:
            self.regs[index] = value

    # ----------------------------------------------------------------- leak
    def _leak(self, kind: str, pc: int, term: Expr, depth: int) -> None:
        site = (pc, kind)
        if site not in self._leak_sites:
            self._leak_sites.add(site)
            self.leaks.append(
                LeakObservation(kind, pc, depth, term, secret_bytes(term)))
        if len(self.leaks) >= self.max_leaks:
            raise _Abort
