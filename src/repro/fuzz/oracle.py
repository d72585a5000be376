"""The non-interference oracle.

A victim leaks under a configuration when running it with two different
secrets produces different attacker-visible traces.  The oracle reduces
each run to per-channel digests (:func:`repro.security.observer.
channel_digests`) and diffs the pair.  The campaign judges a divergence by
the leak rule, :func:`repro.security.attacks.expected_to_leak`, keyed by
the plan's exposure class:

* ``UnsafeBaseline`` is *expected* to diverge — campaigns use those
  divergences as a sanity check that the oracle can see leaks at all;
* ``STT`` is expected to diverge on victims that expose a
  **non-speculatively** accessed secret (the protection-scope gap that
  motivates SPT);
* any other divergence under a secure configuration is a counterexample
  to the reproduction's security claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.attack_model import AttackModel
from repro.harness.parallel import SimTally
from repro.harness.runner import simulate, simulate_pair
from repro.isa.instructions import Program
from repro.isa.interpreter import run_program
from repro.pipeline.params import MachineParams
from repro.security.observer import (channel_digests, differing_channels,
                                     differing_events)

# Retired-instruction budget for fuzz victims: they are small programs, so
# a run that hits this without halting is itself a finding.
FUZZ_BUDGET = 200_000

# Core runs of one pair verdict at worst: a paired run the secrets steered
# apart, then both separate runs.
PAIR_MAX_SIMULATIONS = 3


@dataclass(frozen=True)
class CellVerdict:
    """The oracle's judgement for one (config, attack-model) cell."""

    config: str
    model: AttackModel
    channels: tuple         # diverging channels, trace order (empty = clean)
    expected: bool          # is divergence expected in this cell?

    @property
    def diverged(self) -> bool:
        return bool(self.channels)

    @property
    def counterexample(self) -> bool:
        """An unexpected divergence: a secure configuration leaked."""
        return self.diverged and not self.expected


def architectural_dependence(a: Program, b: Program,
                             max_instructions: int = FUZZ_BUDGET) -> bool:
    """Does the *committed* execution path differ between two renderings?

    The generator guarantees architectural secret-independence; a True here
    means a generator invariant broke (the divergence would then be overt,
    not microarchitectural, and no speculation defense could mask it).
    """
    ra = run_program(a, max_instructions=max_instructions, trace_pcs=True)
    rb = run_program(b, max_instructions=max_instructions, trace_pcs=True)
    return ra.halted != rb.halted or ra.pc_trace != rb.pc_trace


def check_pair_direct(a: Program, b: Program, config: str,
                      model: AttackModel,
                      params: Optional[MachineParams] = None,
                      max_instructions: int = FUZZ_BUDGET,
                      tally: Optional[SimTally] = None) -> list:
    """Diverging channels between two renderings, simulated in-process.

    The minimiser's (and the tests') fast path — no pool, no cache.  The
    renderings run through :func:`~repro.harness.runner.simulate_pair`:
    when one paired run served both, no steering site saw the secrets
    differ, and the two runs share every attacker-visible event.  The
    core runs it made are added to ``tally`` when one is given; a pair
    that raises is charged :data:`PAIR_MAX_SIMULATIONS`.
    """
    try:
        run = simulate_pair(a, b, config, model, max_instructions, params,
                            require_halt=True)
    except RuntimeError:
        if tally is not None:
            tally.simulations += PAIR_MAX_SIMULATIONS
        raise
    if tally is not None:
        tally.add(run.runs, run.fallbacks)
    if run.fallbacks[0] is None:
        return []
    sim_a, sim_b = run.results[0]
    return differing_channels(channel_digests(sim_a.observer, sim_a.cycles),
                              channel_digests(sim_b.observer, sim_b.cycles))


def divergence_detail(a: Program, b: Program, config: str,
                      model: AttackModel, limit: int = 5,
                      max_instructions: int = FUZZ_BUDGET,
                      tally: Optional[SimTally] = None) -> str:
    """Human-readable first differing events (counterexample reports),
    from two separate runs, added to ``tally`` when one is given."""
    sim_a = simulate(a, config, model, max_instructions, require_halt=True)
    sim_b = simulate(b, config, model, max_instructions, require_halt=True)
    if tally is not None:
        tally.simulations += 2
    diffs = differing_events(sim_a.observer, sim_b.observer, limit=limit)
    if not diffs and sim_a.cycles != sim_b.cycles:
        return f"event streams equal; total cycles {sim_a.cycles} != {sim_b.cycles}"
    return "\n".join(str(d) for d in diffs)
