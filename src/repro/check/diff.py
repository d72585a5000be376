"""``repro backend-diff`` — pin the default run against the reference run.

Runs every (workload, configuration, attack model) cell of a grid twice
and demands *bit-identical* outcomes:

* the **default run** is :meth:`OoOCore.run` as every figure, campaign
  and benchmark calls it: quiescent fast-forward and DynInst recycling
  live;
* the **reference run** is the same engine in stepped mode — every cycle
  stepped, no recycling — under the full lockstep sanitizer
  (``check_level="full"``), which holds a packed SPT engine to the
  per-entry reference it runs beside.

Compared are cycle counts, the retired-PC stream, the architectural
register file, every metric path of the metrics tree (less the
sanitizer's own ``check`` group: the sanitizer changes no answer) and the
per-channel digests of the attacker-visible trace.  A wedged simulation
must wedge identically in both runs (same exception, same message, same
cycle).

It also checks grouped runs: for every workload and attack model, the
grid's configurations run through the group runner
(:func:`repro.harness.runner.simulate_group`, what ``run_many`` does with
a cell's configurations: UnsafeBaseline, first in the list, on a core of
its own and the rest as groups), and :func:`group_diff_cell` demands that
each one's outcome equal its separate default run's.

The cells run through :func:`repro.harness.parallel.fan_out` with
``REPRO_JOBS`` workers, as ``repro check``'s do; the grid flags are the
ones ``repro check`` takes, and a usage error exits 2.

With a twin program, :func:`group_diff_cell` compares the same projection
between the twin-group runner (what ``run_many`` does with a fuzz seed's
cells under one model) and separate runs of both programs under every
configuration, and :func:`pair_diff_cell` is its one-configuration twin
case (:func:`repro.harness.runner.simulate_pair`): the differentials of
the fuzz oracle's paired runs.

Examples::

    python -m repro.cli backend-diff --smoke
    python -m repro.cli backend-diff                  # full Figure 7 grid
    python -m repro.cli backend-diff --workloads mcf --budget 20000
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.check.violation import InvariantViolation
from repro.core.attack_model import AttackModel
from repro.harness.configs import Grid, at_least_one, make_engine
from repro.harness.parallel import (GroupSpecs, RunFailure, RunSpec,
                                    default_jobs, fan_out)
from repro.harness.runner import PAIRED_ERROR, simulate_group
from repro.isa.instructions import Program
from repro.pipeline.core import OoOCore, SimResult, SimulationError
from repro.pipeline.engine_api import ProtectionEngine
from repro.pipeline.params import MachineParams
from repro.security.observer import channel_digests, differing_channels
from repro.workloads.registry import get as get_workload

SMOKE_WORKLOADS = ("mcf", "chacha20")
SMOKE_CONFIGS = ("UnsafeBaseline", "SecureBaseline", "STT",
                 "SPT{Bwd,ShadowL1}")
SMOKE_BUDGET = 3000
FULL_BUDGET = 2000
GRID = Grid(SMOKE_WORKLOADS, SMOKE_CONFIGS, SMOKE_BUDGET, FULL_BUDGET)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run_spt backend-diff",
        description="Run a grid as default and as reference runs and "
                    "require bit-identical results.")
    GRID.add_arguments(parser)
    parser.add_argument("--scale", type=at_least_one, default=1,
                        help="workload scale factor")
    return parser


def run_outcome(program: Program, engine: ProtectionEngine, budget: int,
                check_level: str = "off") -> tuple:
    """One run of ``program`` as ``(core, comparable outcome)``:
    ``check_level="full"`` makes it the reference run, ``"off"`` the
    default run."""
    core = OoOCore(program, engine=engine,
                   params=MachineParams(check_level=check_level))
    core.retired_pcs = []
    try:
        sim = core.run(max_instructions=budget)
    except (SimulationError, InvariantViolation) as exc:
        # A wedge is an outcome too: both runs must wedge identically.
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


def diff_cell(cell) -> list:
    """One cell's mismatches (module-level: the fan-out pickles it): a
    RunSpec's :func:`compare_cell` of its reference and default runs, or a
    GroupSpecs' :func:`group_diff_cell` mismatches, each followed by the
    departures."""
    if isinstance(cell, GroupSpecs):
        first = cell.specs[0]
        _, departures, mismatches = group_diff_cell(
            get_workload(first.workload).program(first.scale),
            [spec.config for spec in cell.specs], first.model,
            first.max_instructions)
        return mismatches + departures if mismatches else []
    spec = (cell.workload, cell.config, cell.model, cell.scale,
            cell.max_instructions)
    return compare_cell(run_cell(*spec, reference=True), run_cell(*spec))


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    workloads, configs, models, budget = GRID.select(args)
    cells = [RunSpec(w, c, m, scale=args.scale, max_instructions=budget)
             for w in workloads for c in configs for m in models]
    groups = [GroupSpecs(tuple(RunSpec(w, c, m, scale=args.scale,
                                       max_instructions=budget)
                               for c in configs))
              for w in workloads for m in models] if len(configs) > 1 else []
    try:
        outcomes = fan_out(diff_cell, cells + groups, default_jobs())
    except RunFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    failures = 0
    for cell, mismatches in zip(cells + groups, outcomes):
        if mismatches:
            failures += 1
            spec = cell.specs[0] if isinstance(cell, GroupSpecs) else cell
            what = "grouped" if isinstance(cell, GroupSpecs) else spec.config
            print(f"MISMATCH {spec.workload}/{what}/{spec.model.value}:",
                  file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
    verdict = "bit-identical" if not failures else f"{failures} DIVERGENT"
    print(f"backend-diff: {len(cells)} cells x default and reference runs"
          + (f", {len(groups)} groups of {len(configs)} x grouped and "
             "separate runs" if groups else "")
          + f" (budget {budget}, scale {args.scale}): {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
