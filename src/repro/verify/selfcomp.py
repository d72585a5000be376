"""Self-composition leak check over the bounded symbolic explorer.

Speculative non-interference is a *relational* (2-run) property: runs with
secrets A and B must be attacker-indistinguishable.  The explorer performs
the self-composition symbolically in one pass — both runs are the same term
graph modulo which variable set the secret bytes draw from, so the traces
differ for *some* A/B exactly when an observation's simplified term still
contains a secret variable (see :mod:`repro.verify.explorer`).

This module turns a raw :class:`~repro.verify.explorer.LeakObservation`
into an actionable :class:`LeakWitness`: it renames the term into the two
runs' variable sets (``A``/``B``) for literal two-trace rendering, and
*confirms* the witness by searching for a concrete secret pair under which
the observed value actually differs — a syntactic leak whose term is
semantically constant (a simplifier blind spot like ``add(x, 1) - add(1,
x)``) is reported unconfirmed rather than silently trusted.  The concrete
pair doubles as the replay input for the fuzz oracle during cross-checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.isa.instructions import Program
from repro.verify.explorer import (ExplorationStats, ExplorerResult,
                                   SpeculativeExplorer)
from repro.verify.expr import Term, evaluate, rename, render, variables
from repro.verify.symmem import SymMemory

SET_ID = "S"                    # the canonical secret-variable set


@dataclass(frozen=True)
class LeakWitness:
    """A confirmed-or-not divergence point of the self-composition."""

    kind: str                   # observation kind (explorer OBS_*)
    pc: int                     # static instruction index
    depth: int                  # 0 = architectural, >0 = transient
    secret: tuple               # responsible secret-byte indices
    expression: str             # the observed term, rendered
    expression_a: str           # same term over run A's variables
    expression_b: str           # ... and run B's
    confirmed: bool             # a distinguishing secret pair was found
    secret_a: dict = field(default_factory=dict)   # {byte index: value}
    secret_b: dict = field(default_factory=dict)
    value_a: Optional[int] = None    # observed value under each assignment
    value_b: Optional[int] = None

    @property
    def speculative(self) -> bool:
        return self.depth > 0

    def to_json(self) -> dict:
        return {
            "kind": self.kind, "pc": self.pc, "depth": self.depth,
            "speculative": self.speculative,
            "secret_bytes": list(self.secret),
            "expression": self.expression,
            "run_a": {"expression": self.expression_a,
                      "secret": {str(k): v
                                 for k, v in sorted(self.secret_a.items())},
                      "observed": self.value_a},
            "run_b": {"expression": self.expression_b,
                      "secret": {str(k): v
                                 for k, v in sorted(self.secret_b.items())},
                      "observed": self.value_b},
            "confirmed": self.confirmed,
        }


@dataclass(frozen=True)
class CheckResult:
    """Verdict of one self-composition check."""

    program: str
    verdict: str                # "safe" | "leak" | "unknown"
    witnesses: tuple            # LeakWitness, discovery order
    complete: bool
    halted: bool
    stats: ExplorationStats
    bounds: dict

    @property
    def leaked(self) -> bool:
        return self.verdict == "leak"

    def to_json(self) -> dict:
        return {
            "program": self.program,
            "verdict": self.verdict,
            "complete": self.complete,
            "halted": self.halted,
            "bounds": dict(self.bounds),
            "stats": {"retired": self.stats.retired,
                      "explored": self.stats.explored,
                      "windows": self.stats.windows,
                      "branches": self.stats.branches},
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def distinguishing_pair(term: Term) -> Optional[tuple]:
    """A concrete secret pair under which ``term`` evaluates differently.

    Returns ``(env_a, env_b, value_a, value_b)`` with envs mapping
    ``(set, index) -> byte``, or None if sampling finds no distinguishing
    pair (the term may be semantically constant).  Deterministic.
    """
    names = sorted(variables(term))
    env_a: dict = {}
    value_a = evaluate(term, env_a)
    # Single-byte flips find most real leaks (the transmit is usually a
    # direct function of one byte).
    for name in names:
        for probe in (0xFF, 0x01, 0x80, 0x55):
            env_b = {name: probe}
            value_b = evaluate(term, env_b)
            if value_b != value_a:
                return env_a, env_b, value_a, value_b
    rng = random.Random(f"verify-witness:{len(names)}")
    for _ in range(128):
        env_b = {name: rng.getrandbits(8) for name in names}
        value_b = evaluate(term, env_b)
        if value_b != value_a:
            return env_a, env_b, value_a, value_b
    return None


def _witness(observation) -> LeakWitness:
    term = observation.term
    pair = distinguishing_pair(term)
    expression = render(term)
    expression_a = render(rename(term, "A"))
    expression_b = render(rename(term, "B"))
    if pair is None:
        return LeakWitness(observation.kind, observation.pc,
                           observation.depth, observation.secret,
                           expression, expression_a, expression_b,
                           confirmed=False)
    env_a, env_b, value_a, value_b = pair
    return LeakWitness(
        observation.kind, observation.pc, observation.depth,
        observation.secret, expression, expression_a, expression_b,
        confirmed=True,
        secret_a={index: env_a.get((SET_ID, index), 0)
                  for index in observation.secret},
        secret_b={index: env_b.get((SET_ID, index), 0)
                  for index in observation.secret},
        value_a=value_a, value_b=value_b)


def check_program(program: Program, memory: SymMemory, *,
                  spec_window: int = 32, spec_depth: int = 1,
                  max_instructions: int = 400_000,
                  max_explored: int = 2_000_000,
                  max_leaks: int = 8) -> CheckResult:
    """Run the self-composition check on a prepared symbolic state.

    ``memory`` must hold the program's initial memory with secret bytes
    replaced by ``S``-set variables (:func:`repro.verify.targets.
    make_symbolic_memory`).  The exploration runs on a copy, so ``memory``
    is left as it was and one prepared memory can be checked at several
    bounds.  A ``safe`` verdict is sound for *all* secret values, up to the
    speculation bounds; ``leak`` comes with witnesses.
    A negative speculation bound raises ``ValueError``: it would explore no
    transient path and read every program as safe.
    """
    if spec_window < 0 or spec_depth < 0:
        raise ValueError(f"speculation bounds must be at least 0, got "
                         f"spec_window={spec_window} "
                         f"spec_depth={spec_depth}")
    bounds = {"spec_window": spec_window, "spec_depth": spec_depth,
              "max_instructions": max_instructions,
              "max_explored": max_explored, "max_leaks": max_leaks}
    explorer = SpeculativeExplorer(
        program, memory.copy(), spec_window=spec_window,
        spec_depth=spec_depth, max_instructions=max_instructions,
        max_explored=max_explored, max_leaks=max_leaks)
    result: ExplorerResult = explorer.run()
    witnesses = tuple(_witness(obs) for obs in result.leaks)
    return CheckResult(program.name, result.verdict, witnesses,
                       result.complete, result.halted, result.stats, bounds)


def reflexive_check(program: Program, memory: SymMemory,
                    **bounds) -> CheckResult:
    """The reflexivity half of self-composition: equal secrets, no leak.

    Concretises every symbolic byte to its zero-env value — i.e. runs the
    *same* secret on both sides — and re-runs the explorer.  With no free
    variables, no observation can contain one, so any verdict other than
    ``safe``/``unknown`` would mean the checker itself is broken.
    """
    concrete = SymMemory(memory.concretise({}))
    return check_program(program, concrete, **bounds)
