"""The Spectre-variant attack scenario library (paper Section 9.1, extended).

Every named scenario bundles an attack builder from
:mod:`repro.security.attacks` with its *declarative expectation row*: for
each Table 2 configuration, whether the covert-channel probe line must be
touched.  The rows encode the paper's protection-scope argument:

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

``scenario_matrix`` runs the full scenario x config x model grid, optionally
across worker processes, and ``render_matrix`` pretty-prints it.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from repro.core.attack_model import AttackModel
from repro.harness.configs import CONFIGURATIONS, make_engine
from repro.pipeline.core import OoOCore, SimResult
from repro.pipeline.params import MachineParams
from repro.security import attacks
from repro.security.attacks import AttackProgram

SPECULATIVE = "speculative"
NONSPECULATIVE = "nonspeculative"


def _expected_row(exposure: str) -> dict[str, bool]:
    """The per-config leak expectation for an exposure class."""
    if exposure == SPECULATIVE:
        return {name: name == "UnsafeBaseline" for name in CONFIGURATIONS}
    if exposure == NONSPECULATIVE:
        return {name: name in ("UnsafeBaseline", "STT")
                for name in CONFIGURATIONS}
    raise ValueError(exposure)


@dataclass(frozen=True)
class Scenario:
    """A named attack scenario with its declarative expectation row."""

    name: str
    variant: str                  # Kocher et al. taxonomy label
    exposure: str                 # SPECULATIVE or NONSPECULATIVE
    summary: str
    build: Callable[..., AttackProgram]   # keyword overrides, e.g. secret=
    expected: Mapping[str, bool]  # config name -> must the probe line leak?


def _scenario(name: str, variant: str, exposure: str, summary: str,
              build: Callable[..., AttackProgram]) -> Scenario:
    return Scenario(name, variant, exposure, summary, build,
                    _expected_row(exposure))


SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    _scenario(
        "spectre-pht", "v1 (PHT)", SPECULATIVE,
        "Bounds-check bypass: trained direction predictor lets a transient "
        "out-of-bounds load read and transmit a secret byte.",
        attacks.spectre_v1),
    _scenario(
        "spectre-btb", "v2 (BTB)", NONSPECULATIVE,
        "Indirect-target injection: an aliased wildcard BTB entry redirects "
        "the victim's call into a gadget that leaks a retired register.",
        attacks.spectre_btb),
    _scenario(
        "spectre-rsb", "v5 (RSB)", NONSPECULATIVE,
        "Return-stack misdirection: a callee overwrites its return address, "
        "so the RAS-predicted return transiently runs the transmit gadget.",
        attacks.spectre_rsb),
    _scenario(
        "spectre-stl", "v4 (STL)", SPECULATIVE,
        "Speculative store bypass: a load issues past an unresolved older "
        "store and reads the stale secret it was about to overwrite.",
        attacks.spectre_stl),
    _scenario(
        "nonspec-secret", "SPT motivation", NONSPECULATIVE,
        "A constant-time victim holds a secret register non-speculatively; "
        "a mis-trained indirect branch transiently transmits it.",
        attacks.nonspec_secret),
    _scenario(
        "uninit-transient", "SpectreOOBState", SPECULATIVE,
        "Uninitialised-memory-is-secret policy: a bounds bypass transiently "
        "reads a never-written heap byte (keyed-hash fill).",
        attacks.uninit_transient),
)}


def expected_to_leak(scenario: str, config: str,
                     model: Optional[AttackModel] = None) -> bool:
    """The declarative expectation table (KeyError on unknown names).

    ``model`` is accepted for symmetry with ``run_scenario`` but ignored:
    the expectation rows are attack-model independent by construction.
    """
    if config not in CONFIGURATIONS:
        raise KeyError(config)
    return SCENARIOS[scenario].expected[config]


def run_attack(attack: AttackProgram, config: str, model: AttackModel,
               params: Optional[MachineParams] = None,
               ) -> tuple[bool, SimResult]:
    """Run one attack program; returns (leaked, sim_result).

    Honours the attack's ``overrides`` (MachineParams fields it depends on)
    and its ``setup`` hook (out-of-band attacker preparation).
    """
    params = params or MachineParams()
    if attack.overrides:
        params = dataclasses.replace(params, **attack.overrides)
    core = OoOCore(attack.program, engine=make_engine(config, model),
                   params=params)
    if attack.setup:
        attack.setup(core)
    sim = core.run(max_instructions=500_000)
    if not sim.halted:
        raise RuntimeError(f"attack {attack.program.name} did not halt "
                           f"under {config}/{model.name}")
    return attack.leaked(sim.observer), sim


def run_scenario(scenario: str, config: str, model: AttackModel,
                 params: Optional[MachineParams] = None,
                 ) -> tuple[bool, SimResult]:
    """Run one scenario cell; returns (leaked, sim_result)."""
    return run_attack(SCENARIOS[scenario].build(), config, model, params)


@dataclass(frozen=True)
class ScenarioResult:
    """Leakage verdict for one (scenario, config, model) cell."""

    scenario: str
    config: str
    model: str                    # AttackModel name (picklable)
    leaked: bool
    expected: bool

    @property
    def passed(self) -> bool:
        return self.leaked == self.expected


def _run_cell(cell: tuple[str, str, str]) -> ScenarioResult:
    """Worker for one matrix cell (module-level: picklable)."""
    scenario, config, model_name = cell
    model = AttackModel[model_name]
    leaked, _ = run_scenario(scenario, config, model)
    return ScenarioResult(scenario, config, model_name, leaked,
                          expected_to_leak(scenario, config))


def scenario_matrix(scenarios: Optional[Sequence[str]] = None,
                    configs: Optional[Sequence[str]] = None,
                    models: Optional[Sequence[AttackModel]] = None,
                    jobs: int = 1) -> list[ScenarioResult]:
    """Run the scenario x config x model grid, optionally in parallel.

    Results are deterministic and ordering-stable regardless of ``jobs``:
    every cell simulation is self-contained, so worker processes return
    bit-identical verdicts to an in-process run.
    """
    names = list(scenarios or SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise KeyError(name)
    configs = list(configs or CONFIGURATIONS)
    models = list(models or (AttackModel.SPECTRE, AttackModel.FUTURISTIC))
    cells = [(name, config, model.name)
             for name in names for model in models for config in configs]
    if jobs <= 1:
        return [_run_cell(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_cell, cells))


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
