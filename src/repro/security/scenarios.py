"""The Spectre-variant attack scenario library (paper Section 9.1, extended).

Every named scenario bundles an attack builder from
:mod:`repro.security.attacks` with its *exposure class*, and the one leak
rule, :func:`repro.security.attacks.expected_to_leak`, turns the class
into each Table 2 configuration's expectation: whether the covert-channel
probe line must be touched.

* ``speculative`` exposure — the secret only ever exists transiently
  (bounds bypass, store bypass, uninitialised heap).  Everything except
  UnsafeBaseline blocks the leak: STT and SPT both taint
  speculatively-accessed data, and SecureBaseline delays the transmitter.

* ``nonspeculative`` exposure — the secret was loaded and *retired* before
  the transient window (a register the victim computes over).  STT's scope
  excludes such data, so STT leaks alongside UnsafeBaseline; SPT's
  taint-everything start state and SecureBaseline still block it.

The expectation is model-independent: scenarios are built so the verdict
holds under both the Spectre and Futuristic attack models (the builders'
speculation windows are wide enough to cover the Futuristic VP delays).

``scenario_matrix`` runs the full scenario x config x model grid through
:func:`repro.harness.parallel.fan_out`, one cell per (scenario, model):
one :func:`~repro.harness.runner.simulate_group` run over its
configurations (one core per class of agreeing engines, UnsafeBaseline
on a core of its own), which raises its first failing cell's
``RunFailure``.  ``render_matrix`` pretty-prints it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.attack_model import AttackModel
from repro.harness.configs import BOTH_MODELS, CONFIGURATIONS
from repro.harness.parallel import RunFailure, default_jobs, fan_out
from repro.harness.runner import simulate, simulate_group
from repro.pipeline.core import SimResult
from repro.pipeline.params import MachineParams
from repro.security import attacks
from repro.security.attacks import (NONSPECULATIVE, SPECULATIVE,
                                    AttackProgram, expected_to_leak)


@dataclass(frozen=True)
class Scenario:
    """A named attack scenario and how it exposes its secret."""

    name: str
    variant: str                  # Kocher et al. taxonomy label
    exposure: str                 # SPECULATIVE or NONSPECULATIVE
    summary: str
    build: Callable[..., AttackProgram]   # keyword overrides, e.g. secret=


SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    Scenario(
        "spectre-pht", "v1 (PHT)", SPECULATIVE,
        "Bounds-check bypass: trained direction predictor lets a transient "
        "out-of-bounds load read and transmit a secret byte.",
        attacks.spectre_v1),
    Scenario(
        "spectre-btb", "v2 (BTB)", NONSPECULATIVE,
        "Indirect-target injection: an aliased wildcard BTB entry redirects "
        "the victim's call into a gadget that leaks a retired register.",
        attacks.spectre_btb),
    Scenario(
        "spectre-rsb", "v5 (RSB)", NONSPECULATIVE,
        "Return-stack misdirection: a callee overwrites its return address, "
        "so the RAS-predicted return transiently runs the transmit gadget.",
        attacks.spectre_rsb),
    Scenario(
        "spectre-stl", "v4 (STL)", SPECULATIVE,
        "Speculative store bypass: a load issues past an unresolved older "
        "store and reads the stale secret it was about to overwrite.",
        attacks.spectre_stl),
    Scenario(
        "nonspec-secret", "SPT motivation", NONSPECULATIVE,
        "A constant-time victim holds a secret register non-speculatively; "
        "a mis-trained indirect branch transiently transmits it.",
        attacks.nonspec_secret),
    Scenario(
        "uninit-transient", "SpectreOOBState", SPECULATIVE,
        "Uninitialised-memory-is-secret policy: a bounds bypass transiently "
        "reads a never-written heap byte (keyed-hash fill).",
        attacks.uninit_transient),
)}


# Retired-instruction budget of an attack run: a victim that does not halt
# within it fails its cell.
ATTACK_BUDGET = 500_000


def run_attack(attack: AttackProgram, config: str, model: AttackModel,
               params: Optional[MachineParams] = None,
               ) -> tuple[bool, SimResult]:
    """Run one attack program; returns (leaked, sim_result).

    Honours the attack's ``overrides`` (MachineParams fields it depends on)
    and its ``setup`` hook (out-of-band attacker preparation).
    """
    sim = simulate(attack.program, config, model, ATTACK_BUDGET,
                   _attack_params(attack, params), setup=attack.setup,
                   require_halt=True)
    return attack.leaked(sim.observer), sim


def _attack_params(attack: AttackProgram,
                   params: Optional[MachineParams]) -> MachineParams:
    params = params or MachineParams()
    if attack.overrides:
        params = dataclasses.replace(params, **attack.overrides)
    return params


def run_scenario(scenario: str, config: str, model: AttackModel,
                 params: Optional[MachineParams] = None,
                 ) -> tuple[bool, SimResult]:
    """Run one scenario cell; returns (leaked, sim_result)."""
    return run_attack(SCENARIOS[scenario].build(), config, model, params)


@dataclass(frozen=True)
class ScenarioCell:
    """One (scenario, config, model) cell of the matrix."""

    scenario: str
    config: str
    model: str                    # AttackModel name

    def describe(self) -> str:
        return (f"scenario={self.scenario} config={self.config} "
                f"model={self.model}")


@dataclass(frozen=True)
class ScenarioRow:
    """The cells of one (scenario, model) under ``configs``: one fan-out
    cell."""

    scenario: str
    model: str                    # AttackModel name
    configs: tuple

    def describe(self) -> str:
        return (f"scenario={self.scenario} model={self.model} "
                f"configs={','.join(self.configs)}")


@dataclass(frozen=True)
class ScenarioResult:
    """Leakage verdict for one (scenario, config, model) cell."""

    scenario: str
    config: str
    model: str                    # AttackModel name
    leaked: bool
    expected: bool

    @property
    def passed(self) -> bool:
        return self.leaked == self.expected


def _run_row(row: ScenarioRow) -> list:
    """Judge one matrix row (module-level: picklable) as one group run
    (:func:`~repro.harness.runner.simulate_group`, one core run per class
    of agreeing engines): each configuration's ``ScenarioResult``.  Raises
    the first failing configuration's ``RunFailure``, naming its
    :class:`ScenarioCell`."""
    scenario = SCENARIOS[row.scenario]
    attack = scenario.build()
    run = simulate_group(attack.program, row.configs, AttackModel[row.model],
                         ATTACK_BUDGET, _attack_params(attack, None),
                         setup=attack.setup, require_halt=True)
    results = []
    for config, sim in zip(row.configs, run.results):
        if isinstance(sim, Exception):
            raise RunFailure.of(ScenarioCell(row.scenario, config, row.model),
                                sim) from sim
        results.append(ScenarioResult(
            row.scenario, config, row.model, attack.leaked(sim.observer),
            expected_to_leak(scenario.exposure, config)))
    return results


def scenario_matrix(scenarios: Optional[Sequence[str]] = None,
                    configs: Optional[Sequence[str]] = None,
                    models: Optional[Sequence[AttackModel]] = None,
                    jobs: Optional[int] = None) -> list[ScenarioResult]:
    """Run the scenario x config x model grid over ``jobs`` processes
    (``None``: ``REPRO_JOBS`` or the CPU count).

    Results are deterministic and ordering-stable regardless of ``jobs``:
    every cell simulation is self-contained, so worker processes return
    bit-identical verdicts to an in-process run.  The first cell that
    raises fails the matrix with a ``RunFailure`` naming it.
    """
    names = list(scenarios or SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise KeyError(name)
    rows = [ScenarioRow(name, model.name, tuple(configs or CONFIGURATIONS))
            for name in names for model in models or BOTH_MODELS]
    if jobs is None:
        jobs = default_jobs()
    return [result for results in fan_out(_run_row, rows, jobs)
            for result in results]


def render_matrix(results: Sequence[ScenarioResult]) -> str:
    """Text table: one row per scenario x model, one column per config."""
    configs = list(dict.fromkeys(r.config for r in results))
    rows: dict[tuple[str, str], dict[str, ScenarioResult]] = {}
    for r in results:
        rows.setdefault((r.scenario, r.model), {})[r.config] = r

    def short(config: str) -> str:
        return (config.replace("Baseline", "").replace("Shadow", "Sh")
                .replace("SPT{", "SPT:").rstrip("}"))

    headers = ["scenario", "model"] + [short(c) for c in configs]
    table = [headers]
    for (scenario, model), cells in rows.items():
        row = [scenario, model]
        for config in configs:
            cell = cells.get(config)
            if cell is None:
                row.append("-")
            else:
                verdict = "LEAK" if cell.leaked else "none"
                row.append(verdict if cell.passed else f"{verdict}(!)")
        table.append(row)
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
