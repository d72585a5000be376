"""The non-interference oracle.

A victim leaks under a configuration when running it with two different
secrets produces different attacker-visible traces.  The oracle reduces
each run to per-channel digests (:func:`repro.security.observer.
channel_digests`), diffs the pair, and judges the divergence against the
expected-leak matrix — the same rows as the scenario library's
``repro.security.scenarios.expected_to_leak``, keyed by how the victim
exposes its secret instead of by scenario name:

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
from repro.harness.configs import make_engine
from repro.isa.instructions import Program
from repro.isa.interpreter import run_program
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams
from repro.security.observer import (channel_digests, differing_channels,
                                     differing_events)
from repro.fuzz.generator import (EXPOSURE_NONSPECULATIVE,
                                  EXPOSURE_SPECULATIVE)

# Retired-instruction budget for fuzz victims: they are small programs, so
# a run that hits this without halting is itself a finding.
FUZZ_BUDGET = 200_000


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


def expected_to_diverge(exposure: str, config: str) -> bool:
    """The pen-test matrix, keyed by the victim's secret-exposure class."""
    if exposure not in (EXPOSURE_SPECULATIVE, EXPOSURE_NONSPECULATIVE):
        raise ValueError(f"unknown exposure class {exposure!r}")
    if config == "UnsafeBaseline":
        return True
    if exposure == EXPOSURE_NONSPECULATIVE:
        return config == "STT"      # STT's scope excludes non-spec secrets
    return False


def classify(exposure: str, config: str, model: AttackModel,
             channels) -> CellVerdict:
    """Fold a digest diff into a verdict for one cell."""
    return CellVerdict(config, model, tuple(channels),
                       expected_to_diverge(exposure, config))


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


def run_traced(program: Program, config: str, model: AttackModel,
               params: Optional[MachineParams] = None,
               max_instructions: int = FUZZ_BUDGET):
    """One in-process simulation, returning the SimResult (with observer)."""
    core = OoOCore(program, engine=make_engine(config, model),
                   params=params)
    sim = core.run(max_instructions=max_instructions)
    if not sim.halted:
        raise RuntimeError(
            f"{program.name} did not halt under {config}/{model.value} "
            f"within {max_instructions} instructions")
    return sim


def check_pair_direct(a: Program, b: Program, config: str,
                      model: AttackModel,
                      params: Optional[MachineParams] = None,
                      max_instructions: int = FUZZ_BUDGET) -> list:
    """Diverging channels between two renderings, simulated in-process.

    The minimiser's (and the tests') fast path — no pool, no cache.
    """
    sim_a = run_traced(a, config, model, params, max_instructions)
    sim_b = run_traced(b, config, model, params, max_instructions)
    return differing_channels(channel_digests(sim_a.observer, sim_a.cycles),
                              channel_digests(sim_b.observer, sim_b.cycles))


def divergence_detail(a: Program, b: Program, config: str,
                      model: AttackModel, limit: int = 5) -> str:
    """Human-readable first differing events (counterexample reports)."""
    sim_a = run_traced(a, config, model)
    sim_b = run_traced(b, config, model)
    diffs = differing_events(sim_a.observer, sim_b.observer, limit=limit)
    if not diffs and sim_a.cycles != sim_b.cycles:
        return f"event streams equal; total cycles {sim_a.cycles} != {sim_b.cycles}"
    return "\n".join(str(d) for d in diffs)
