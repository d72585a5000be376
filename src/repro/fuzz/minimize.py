"""Delta-debugging counterexample minimiser.

Shrinks a leaking victim to a minimal reproducing gadget while re-checking
the non-interference oracle after every candidate edit.  Minimisation works
on the generator's *plan* representation, never on raw instruction streams,
so every candidate is a well-formed, halting program by construction:

1. **ddmin over blocks** — drop whole filler/loop/branch/gadget blocks
   (classic Zeller/Hildebrandt delta debugging over the block list);
2. **instruction-level shrink** — ddmin over the instruction lists inside
   the surviving filler blocks;
3. **gadget parameter lowering** — walk each surviving gadget's numeric
   knobs (training passes, widening chain, victim-array size) down a
   shrink ladder while the leak persists.

The predicate is "the same (config, model) cell still diverges"; any
diverging channel counts, so a counterexample that mutates from (say) a
cache-line divergence into a pure timing divergence while shrinking is
still pursued.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.attack_model import AttackModel
from repro.fuzz.generator import (Branch, Filler, FuzzPlan, Gadget, Loop,
                                  render, with_blocks)
from repro.fuzz.oracle import FUZZ_BUDGET, check_pair_direct
from repro.harness.parallel import SimTally
from repro.pipeline.params import MachineParams

# Lowering ladders for gadget parameters (tried left to right).
_TRAININGS_LADDER = (1, 2, 3)
_WIDEN_LADDER = (0, 2, 4, 8, 16)
_IN_BOUNDS_LADDER = (1, 2, 4)


@dataclass
class MinimizeResult:
    """Outcome of one minimisation."""

    plan: FuzzPlan              # the minimal still-leaking plan
    checks: int                 # oracle invocations spent
    instructions_before: int    # rendered static program size
    instructions_after: int


class _Budget:
    """Caps oracle invocations so pathological cases terminate."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spent(self) -> bool:
        return self.used >= self.limit


def minimize_plan(plan: FuzzPlan, secrets: tuple, config: str,
                  model: AttackModel,
                  params: Optional[MachineParams] = None,
                  max_checks: int = 300,
                  max_instructions: int = FUZZ_BUDGET,
                  tally: Optional[SimTally] = None) -> MinimizeResult:
    """Shrink ``plan`` while its (config, model) divergence persists.

    ``secrets`` is the pair of secret values that exhibited the leak.
    Raises ``ValueError`` if the input plan does not diverge at all (the
    caller should only minimise confirmed counterexamples/leaks).  The
    core runs of every oracle check are added to ``tally`` when one is
    given.
    """
    budget = _Budget(max_checks)

    def leaks(candidate: FuzzPlan) -> bool:
        budget.used += 1
        try:
            channels = check_pair_direct(
                render(candidate, secrets[0]), render(candidate, secrets[1]),
                config, model, params, max_instructions, tally)
        except RuntimeError:
            return False        # a candidate that no longer halts is bad
        return bool(channels)

    if not leaks(plan):
        raise ValueError(
            f"plan for seed {plan.seed} does not diverge under "
            f"{config}/{model.value}; nothing to minimise")
    size_before = len(render(plan, secrets[0]).instructions)

    blocks = _ddmin(list(plan.blocks),
                    lambda bs: leaks(with_blocks(plan, bs)), budget)
    plan = with_blocks(plan, blocks)
    plan = _shrink_block_bodies(plan, leaks, budget)
    plan = _lower_gadget_params(plan, leaks, budget)

    return MinimizeResult(plan, budget.used, size_before,
                          len(render(plan, secrets[0]).instructions))


def _ddmin(items: list, test, budget: _Budget) -> list:
    """Classic ddmin: the sublist is 1-minimal w.r.t. ``test`` on return."""
    granularity = 2
    while len(items) >= 2 and not budget.spent():
        chunk = max(1, len(items) // granularity)
        reduced = False
        for start in range(0, len(items), chunk):
            if budget.spent():
                break
            candidate = items[:start] + items[start + chunk:]
            if candidate and test(candidate):
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items


def _shrink_block_bodies(plan: FuzzPlan, leaks, budget: _Budget) -> FuzzPlan:
    """ddmin the instruction lists inside surviving non-gadget blocks."""
    for index, block in enumerate(plan.blocks):
        if budget.spent():
            break
        if isinstance(block, (Filler, Loop)) and block.instrs:
            def test(instrs, _index=index, _block=block):
                shrunk = replace(_block, instrs=tuple(instrs))
                return leaks(_replace_block(plan, _index, shrunk))
            kept = _ddmin(list(block.instrs), test, budget)
            # _ddmin never returns an empty list; probe the empty body too.
            if not budget.spent() and len(kept) == 1:
                if leaks(_replace_block(plan, index,
                                        replace(block, instrs=()))):
                    kept = []
            plan = _replace_block(plan, index,
                                  replace(block, instrs=tuple(kept)))
        elif isinstance(block, Branch):
            stripped = replace(block, then_instrs=(), else_instrs=())
            if leaks(_replace_block(plan, index, stripped)):
                plan = _replace_block(plan, index, stripped)
    return plan


def _lower_gadget_params(plan: FuzzPlan, leaks, budget: _Budget) -> FuzzPlan:
    """Walk each gadget's knobs down their shrink ladders."""
    ladders = (("trainings", _TRAININGS_LADDER),
               ("widen", _WIDEN_LADDER),
               ("in_bounds", _IN_BOUNDS_LADDER))
    for index, block in enumerate(plan.blocks):
        if not isinstance(block, Gadget):
            continue
        for attr, ladder in ladders:
            current = getattr(block, attr)
            for value in ladder:
                if budget.spent() or value >= current:
                    break
                candidate = replace(block, **{attr: value})
                if leaks(_replace_block(plan, index, candidate)):
                    block = candidate
                    break
        plan = _replace_block(plan, index, block)
    return plan


def _replace_block(plan: FuzzPlan, index: int, block) -> FuzzPlan:
    blocks = list(plan.blocks)
    blocks[index] = block
    return with_blocks(plan, blocks)
