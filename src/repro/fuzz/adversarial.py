"""AMuLeT-style adversarial campaign: hill-climbing over the plan IR.

Uniform seed sampling (the default ``repro fuzz`` campaign) treats every
victim as equally likely to leak.  Against *hardened* victim populations —
where most generated speculation windows are too narrow to exploit — that
wastes almost the whole budget on hopeless candidates.  This module
replaces it with a guided search:

1. **Score** every candidate plan by how deeply it exercises the
   speculative-taint machinery.  The candidate is run once under the full
   SPT design (the *instrument* configuration) and folded to a scalar from
   the engine metrics: cycles transmitters spent delayed while tainted
   (speculative taint reach — a direct measure of how much tainted data
   the transient window carried to a transmitter), delayed squash
   resolutions, untaint traffic, and shadow-L1 occupancy.  The score is a
   leak-proximity proxy that stays informative *before* any leak exists:
   it grows monotonically as mutations widen a transient window, where the
   binary leak verdict is flat.

2. **Mutate** the winning plan's IR — widen/trainings/bounds knob tweaks,
   transmitter and exposure swaps, gadget insertion, block
   drop/duplicate/swap — and keep the candidate whenever its score
   improves (hill climbing with random restarts on stagnation).

3. **Verify** every *promising* candidate (score improved, or a fresh
   restart) against the target configuration with the campaign's own
   non-interference oracle (two secrets, per-channel digest diff), so
   "found a leak" means exactly what the uniform campaign means.
   Non-improving candidates are rejected after the single instrument run,
   which is what lets the climber out-spend uniform sampling on direction
   instead of on verdicts.

The search is deterministic for a given (profile, config, model, seed) and
budgeted in *simulations* (oracle runs cost 2, instrument runs 1), making
``hill_climb`` and :func:`uniform_search` directly comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.core.attack_model import AttackModel
from repro.fuzz.generator import (PROFILES, SECRET_BYTES, FuzzPlan,
                                  FuzzProfile, Gadget, _gen_gadget,
                                  generate_plan, render, secret_pair,
                                  with_blocks)
from repro.fuzz.oracle import (FUZZ_BUDGET, architectural_dependence,
                               check_pair_direct)
from repro.harness.runner import simulate
from repro.security.attacks import expected_to_leak

# The instrument: the full SPT design's taint machinery measures how far
# secrets travel speculatively, whatever configuration the leak targets.
INSTRUMENT_CONFIG = "SPT{Bwd,ShadowL1}"

# Score weights (see taint_reach_score).  The delay terms carry the
# gradient; the untaint/shadow terms are deliberately small tiebreakers so
# occupancy noise from filler edits cannot drown the window-width signal.
_W_TRANSMIT_DELAY = 1.0
_W_RESOLUTION_DELAY = 2.0
_W_UNTAINT = 0.05
_W_SHADOW_BYTES = 0.01
_W_SHADOW_LINES = 0.01


def taint_reach_score(flat: dict) -> float:
    """Fold one instrumented run's flattened metrics (``Metrics.flatten``)
    into a leak-proximity scalar.

    ``transmitters_delayed_cycles`` dominates: every cycle a transmitter
    sat delayed is a cycle tainted (secret-derived) data was at its
    operands — the window the attack needs.  Delayed squash resolutions
    extend implicit-channel windows the same way.  Untaint traffic and
    shadow-L1 occupancy reward plans that move more (declassifiable) data
    through the protection machinery at all.
    """
    return (_W_TRANSMIT_DELAY
            * flat.get("protection.transmitters_delayed_cycles", 0)
            + _W_RESOLUTION_DELAY
            * flat.get("protection.resolutions_delayed_cycles", 0)
            + _W_UNTAINT * flat.get("engine.untaint.total", 0)
            + _W_SHADOW_BYTES
            * flat.get("engine.shadow.resident_untainted_bytes", 0)
            + _W_SHADOW_LINES * flat.get("engine.shadow.tracked_lines", 0))


# ------------------------------------------------------------------ mutation
_WIDEN_STEPS = (-8, -4, -2, -1, 1, 2, 4, 8)
_MAX_WIDEN = 48
_MAX_TRAININGS = 8


def _mutate_gadget(gadget: Gadget, rng: random.Random,
                   cfg: FuzzProfile) -> Gadget:
    knob = rng.choice(("widen", "widen", "widen", "trainings", "in_bounds",
                       "secret_index", "transmit", "exposure"))
    if knob == "widen":
        widen = min(_MAX_WIDEN,
                    max(0, gadget.widen + rng.choice(_WIDEN_STEPS)))
        return replace(gadget, widen=widen)
    if knob == "trainings":
        trainings = min(_MAX_TRAININGS,
                        max(0, gadget.trainings + rng.choice((-1, 1))))
        return replace(gadget, trainings=trainings)
    if knob == "in_bounds":
        return replace(gadget, in_bounds=rng.choice(cfg.in_bounds))
    if knob == "secret_index":
        return replace(gadget, secret_index=rng.randrange(SECRET_BYTES))
    if knob == "transmit":
        return replace(gadget, transmit=rng.choice(cfg.transmits))
    return replace(gadget, exposure=rng.choice(cfg.exposures))


def mutate(plan: FuzzPlan, rng: random.Random,
           cfg: FuzzProfile) -> FuzzPlan:
    """One random structure-preserving edit of the plan IR.

    Always leaves at least one gadget in place; all edits stay inside the
    generator's architectural-secret-independence envelope (and the search
    re-checks that invariant before simulating any candidate).
    """
    blocks = list(plan.blocks)
    gadget_at = [i for i, b in enumerate(blocks) if isinstance(b, Gadget)]
    op = rng.choice(("knob", "knob", "knob", "knob",
                     "add_gadget", "dup", "swap", "drop"))
    if op == "knob":
        index = rng.choice(gadget_at)
        blocks[index] = _mutate_gadget(blocks[index], rng, cfg)
    elif op == "add_gadget" and len(gadget_at) < cfg.max_gadgets:
        blocks.insert(rng.randint(0, len(blocks)), _gen_gadget(rng, cfg))
    elif op == "dup" and len(blocks) > 1:
        index = rng.randrange(len(blocks))
        if not isinstance(blocks[index], Gadget):
            blocks.insert(index, blocks[index])
    elif op == "swap" and len(blocks) > 1:
        i, j = rng.sample(range(len(blocks)), 2)
        blocks[i], blocks[j] = blocks[j], blocks[i]
    elif op == "drop" and len(blocks) > 1:
        candidates = [i for i in range(len(blocks))
                      if not isinstance(blocks[i], Gadget)
                      or len(gadget_at) > 1]
        if candidates:
            del blocks[rng.choice(candidates)]
    mutated = with_blocks(plan, blocks)
    return mutated if mutated.gadgets else plan


# -------------------------------------------------------------------- search
@dataclass(frozen=True)
class SearchOutcome:
    """What one budgeted search produced."""

    mode: str               # "hill-climb" | "uniform"
    profile: str
    config: str
    model: str              # AttackModel name
    found: bool             # a leaking plan was reached
    plan: Optional[FuzzPlan]
    channels: tuple         # diverging channels of the leaking plan
    sims: int               # total simulations consumed
    evals: int              # candidate plans evaluated
    best_score: float       # best instrument score seen (hill-climb only)

    @property
    def counterexample(self) -> bool:
        """True when the leak contradicts the protection-scope matrix."""
        return (self.found and self.plan is not None
                and not expected_to_leak(self.plan.exposure, self.config))


class _Budget:
    def __init__(self, sims: int):
        self.limit = sims
        self.sims = 0
        self.evals = 0

    def take(self, n: int) -> bool:
        if self.sims + n > self.limit:
            return False
        self.sims += n
        return True


def _leak_channels(plan: FuzzPlan, config: str, model: AttackModel,
                   max_instructions: int) -> Optional[tuple]:
    """The oracle verdict for one plan: diverging channels, or None when
    the candidate is invalid (broken invariant / non-halting)."""
    a, b = secret_pair(plan.seed)
    prog_a, prog_b = render(plan, a), render(plan, b)
    if architectural_dependence(prog_a, prog_b, max_instructions):
        return None
    try:
        return tuple(check_pair_direct(prog_a, prog_b, config, model,
                                       max_instructions=max_instructions))
    except RuntimeError:
        return None


def _instrument_score(plan: FuzzPlan, model: AttackModel,
                      max_instructions: int) -> Optional[float]:
    secret, _ = secret_pair(plan.seed)
    try:
        sim = simulate(render(plan, secret), INSTRUMENT_CONFIG, model,
                       max_instructions, require_halt=True)
    except RuntimeError:
        return None
    return taint_reach_score(sim.metrics.flatten())


def hill_climb(profile: str = "hard", config: str = "UnsafeBaseline",
               model: AttackModel = AttackModel.SPECTRE,
               budget: int = 150, seed: int = 0, patience: int = 6,
               max_instructions: int = FUZZ_BUDGET) -> SearchOutcome:
    """Adversarially search for a leaking plan under ``config``.

    Per candidate: 1 instrument simulation (the score); candidates whose
    score improves on the incumbent — plus every restart — additionally
    pay 2 oracle simulations for the leak check.  All runs count against
    ``budget``.  Restarts from a fresh random plan after ``patience``
    non-improving candidates.
    """
    cfg = PROFILES[profile]
    rng = random.Random(
        f"adversarial:{profile}:{config}:{model.value}:{seed}")
    budget_ = _Budget(budget)
    fresh_seed = seed * 1_000_000
    best_score = float("-inf")

    def fresh_plan() -> FuzzPlan:
        nonlocal fresh_seed
        plan = generate_plan(fresh_seed, profile)
        fresh_seed += 1
        return plan

    def done(found: bool, plan: Optional[FuzzPlan],
             channels: tuple) -> SearchOutcome:
        return SearchOutcome("hill-climb", profile, config, model.name,
                             found, plan, channels, budget_.sims,
                             budget_.evals, best_score)

    current: Optional[FuzzPlan] = None
    current_score = float("-inf")
    stale = 0
    while True:
        restart = current is None or stale >= patience
        candidate = fresh_plan() if restart \
            else mutate(current, rng, cfg)
        if not budget_.take(1):
            return done(False, None, ())
        budget_.evals += 1
        score = _instrument_score(candidate, model, max_instructions)
        if score is None:               # invalid candidate: never climb onto it
            stale += 1
            continue
        best_score = max(best_score, score)
        if not (restart or score > current_score):
            stale += 1
            continue
        # Promising: pay for the oracle verdict before climbing onto it.
        if not budget_.take(2):
            return done(False, None, ())
        channels = _leak_channels(candidate, config, model, max_instructions)
        if channels is None:
            stale += 1
            continue
        if channels:
            return done(True, candidate, channels)
        current, current_score, stale = candidate, score, 0


def uniform_search(profile: str = "hard", config: str = "UnsafeBaseline",
                   model: AttackModel = AttackModel.SPECTRE,
                   budget: int = 150, seed_start: int = 0,
                   max_instructions: int = FUZZ_BUDGET) -> SearchOutcome:
    """The baseline the hill climber replaces: fresh seeds, same oracle.

    Each seed costs 2 oracle simulations; no instrument runs, so uniform
    search actually evaluates *more* candidates per budget — it just
    cannot steer toward the leak boundary.
    """
    budget_ = _Budget(budget)
    seed = seed_start
    while budget_.take(2):
        budget_.evals += 1
        plan = generate_plan(seed, profile)
        seed += 1
        channels = _leak_channels(plan, config, model, max_instructions)
        if channels:
            return SearchOutcome("uniform", profile, config, model.name,
                                 True, plan, channels, budget_.sims,
                                 budget_.evals, float("-inf"))
    return SearchOutcome("uniform", profile, config, model.name,
                         False, None, (), budget_.sims, budget_.evals,
                         float("-inf"))


def render_outcome(outcome: SearchOutcome) -> str:
    """One-paragraph human-readable search summary."""
    head = (f"{outcome.mode} over profile '{outcome.profile}' vs "
            f"{outcome.config}/{outcome.model}: ")
    if not outcome.found:
        return (head + f"no leaking plan within {outcome.sims} sims "
                f"({outcome.evals} candidates).")
    gadget = outcome.plan.gadgets[0]
    text = (head + f"leaking plan after {outcome.sims} sims "
            f"({outcome.evals} candidates); channels="
            f"{','.join(outcome.channels)}; gadget: {gadget.exposure}/"
            f"{gadget.transmit}, widen={gadget.widen}, "
            f"trainings={gadget.trainings}.")
    if outcome.counterexample:
        text += "  COUNTEREXAMPLE: this cell must not leak."
    return text
