"""Differentials: one run's comparable outcome, and how two differ.

:func:`outcome_of` projects a finished run onto what must not move when
only the way the run is computed changes: cycle count, retired count and
halt, the retired-PC stream, the architectural register file, every
metric path of the metrics tree (less the sanitizer's own ``check``
group: the sanitizer changes no answer) and the per-channel digests of
the attacker-visible trace.  :func:`run_outcome` runs a program under
one engine at a check level and projects it, a wedge or a violation
being an outcome too, and :func:`run_cell` runs a registered workload's
cell as one of two runs:

* the **default run** is :meth:`OoOCore.run` as every figure, campaign
  and benchmark calls it: quiescent fast-forward and DynInst recycling
  live;
* the **reference run** is the same engine in stepped mode (every cycle
  stepped, no recycling) under the full sanitizer
  (``check_level="full"``), which holds a packed SPT engine to the
  per-entry reference it runs beside.

:func:`compare_cell` names every field in which two outcomes differ.
:func:`group_diff_cell` holds the group runner
(:func:`repro.harness.runner.simulate_group`, what ``run_many`` does with
a cell's configurations) to separate default runs; with a twin program it
holds the twin-group runner (what ``run_many`` does with a fuzz seed's
cells under one model) to separate runs of both programs, and
:func:`pair_diff_cell` is its one-configuration twin case
(:func:`repro.harness.runner.simulate_pair`): the differentials of the
fuzz oracle's paired runs.  ``repro check`` (:mod:`repro.check.cli`) runs
:func:`compare_cell` and :func:`group_diff_cell` over a grid.
"""

from __future__ import annotations

from typing import Optional

from repro.check.violation import InvariantViolation
from repro.core.attack_model import AttackModel
from repro.harness.configs import make_engine
from repro.harness.runner import PAIRED_ERROR, simulate_group
from repro.isa.instructions import Program
from repro.pipeline.core import OoOCore, SimResult, SimulationError
from repro.pipeline.engine_api import ProtectionEngine
from repro.pipeline.params import MachineParams
from repro.security.observer import channel_digests, differing_channels
from repro.workloads.registry import get as get_workload


def run_outcome(program: Program, engine: ProtectionEngine, budget: int,
                check_level: str = "off") -> tuple:
    """One run of ``program`` as ``(core, comparable outcome)``:
    ``check_level="full"`` makes it the reference run; ``"off"`` makes it
    the default run, and ``"commit"`` the default run under the
    retire-time lockstep."""
    core = OoOCore(program, engine=engine,
                   params=MachineParams(check_level=check_level))
    core.retired_pcs = []
    try:
        sim = core.run(max_instructions=budget)
    except (SimulationError, InvariantViolation) as exc:
        # A wedge is an outcome too: two runs must wedge identically.
        return core, {"error": f"{type(exc).__name__}: {exc}"}
    return core, outcome_of(sim)


def outcome_of(sim: SimResult) -> dict:
    """The comparable projection of one finished run."""
    return {
        "cycles": sim.cycles,
        "retired": sim.retired,
        "halted": sim.halted,
        "retired_pcs": sim.retired_pcs,
        "arch_regs": sim.arch_regs,
        "metrics": {path: value
                    for path, value in sim.metrics.flatten().items()
                    if not path.startswith("check.")},
        "digests": channel_digests(sim.observer, sim.cycles),
    }


def run_cell(workload: str, config: str, model: AttackModel, scale: int,
             budget: int, reference: bool = False) -> dict:
    """One grid cell's default (or reference) run outcome."""
    return run_outcome(get_workload(workload).program(scale),
                       make_engine(config, model), budget,
                       check_level="full" if reference else "off")[1]


def compare_cell(ref: dict, run: dict,
                 names: tuple = ("reference", "default")) -> list:
    """Human-readable mismatch descriptions (empty = bit-identical);
    ``names`` label the two outcomes."""
    ref_name, run_name = names
    if "error" in ref or "error" in run:
        if ref.get("error") == run.get("error"):
            return []
        return [f"outcome: {ref_name}={ref.get('error', 'completed')!r} "
                f"{run_name}={run.get('error', 'completed')!r}"]
    mismatches = []
    for field in ("cycles", "retired", "halted"):
        if ref[field] != run[field]:
            mismatches.append(
                f"{field}: {ref_name}={ref[field]} {run_name}={run[field]}")
    if ref["retired_pcs"] != run["retired_pcs"]:
        index = next((i for i, (a, b) in
                      enumerate(zip(ref["retired_pcs"], run["retired_pcs"]))
                      if a != b), min(len(ref["retired_pcs"]),
                                      len(run["retired_pcs"])))
        mismatches.append(f"retired-PC stream diverges at retirement "
                          f"#{index}")
    if ref["arch_regs"] != run["arch_regs"]:
        regs = [i for i, (a, b) in
                enumerate(zip(ref["arch_regs"], run["arch_regs"])) if a != b]
        mismatches.append(f"architectural registers differ: {regs}")
    paths = [path
             for path in sorted(set(ref["metrics"]) | set(run["metrics"]))
             if ref["metrics"].get(path) != run["metrics"].get(path)]
    if paths:
        mismatches.append(f"metrics differ: {', '.join(paths[:8])}")
    channels = differing_channels(ref["digests"], run["digests"])
    if channels:
        mismatches.append(f"trace channels differ: {', '.join(channels)}")
    return mismatches


def _record_pcs(core: OoOCore) -> None:
    core.retired_pcs = []


def pair_diff_cell(program_a: Program, program_b: Program, config: str,
                   model: AttackModel, budget: int) -> tuple:
    """The pair runner against two separate runs of one cell:
    ``(fallback, mismatches)``, :func:`group_diff_cell`'s
    one-configuration twin case."""
    fallbacks, _, mismatches = group_diff_cell(program_a, [config], model,
                                               budget, twin=program_b)
    prefix = f"{config}: "
    return fallbacks[0], [line[len(prefix):] for line in mismatches]


def group_diff_cell(program: Program, configs, model: AttackModel,
                    budget: int, twin: Optional[Program] = None) -> tuple:
    """The group runner (:func:`repro.harness.runner.simulate_group`, with
    the ``twin`` program when one is given) against separate default runs
    under ``configs``: ``(fallbacks, departures, mismatches)``, where
    ``fallbacks`` is the group run's (empty without a twin).

    Each configuration's projected outcome, each side's with a twin, must
    equal its separate run's.  With a twin, a configuration whose separate
    traces differ must have fallen back (a paired run that served it would
    have hidden a leak), and a fallback because a paired run raised is a
    fault of the paired core.  ``departures`` names each member that left
    a group, with the query and the cycle, and a group or paired run that
    raised.
    """
    programs = (program,) if twin is None else (program, twin)
    separate = {config: [run_outcome(side, make_engine(config, model),
                                     budget)[1] for side in programs]
                for config in configs}
    run = simulate_group(program, configs, model, budget,
                         setup=_record_pcs, twin=twin)
    label = "grouped" if twin is None else "paired"
    mismatches = []
    for config, result, fallback in zip(
            configs, run.results, run.fallbacks or [None] * len(configs)):
        want = separate[config]
        lines = []
        if isinstance(result, Exception):
            # The first side whose own run raised gives the outcome.
            raised = {"error": f"{type(result).__name__}: {result}"}
            failing = next((side for side in want if "error" in side),
                           want[0])
            lines += compare_cell(failing, raised, ("separate", label))
        elif twin is None:
            lines += compare_cell(want[0], outcome_of(result),
                                  ("separate", label))
        else:
            if fallback == PAIRED_ERROR:
                lines.append(f"the paired run raised:\n{run.error}")
            for name, sim, side in zip("ab", result, want):
                lines += [f"side {name}: {line}" for line in compare_cell(
                    side, outcome_of(sim), ("separate", label))]
            if fallback is None and not any("error" in side
                                            for side in want) \
                    and differing_channels(want[0]["digests"],
                                           want[1]["digests"]):
                lines.append("the separate runs' traces differ, but one "
                             "paired run served both")
        mismatches += [f"{config}: {line}" for line in lines]
    departures = [f"{config} left at cycle {cycle} on {query}"
                  for config, query, cycle in run.departures]
    if run.error:
        departures.append("a group or paired run raised: "
                          + run.error.strip().splitlines()[-1])
    return run.fallbacks, departures, mismatches
