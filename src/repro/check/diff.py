"""``repro backend-diff`` — pin the default run against the reference run.

Runs every (workload, configuration, attack model) cell of a grid twice
and demands *bit-identical* outcomes:

* the **default run** is :meth:`OoOCore.run` as every figure, campaign
  and benchmark calls it: quiescent fast-forward and DynInst recycling
  live, and the packed :class:`~repro.core.spt.SPTEngine`;
* the **reference run** is the core in stepped mode — every cycle
  stepped, no recycling — under the full lockstep sanitizer
  (``check_level="full"``), with
  :class:`~repro.core.spt.ReferenceSPTEngine` in place of ``SPTEngine``.

Compared are cycle counts, the retired-PC stream, the architectural
register file, every metric path of the metrics tree (less the
sanitizer's own ``check`` group: the sanitizer is passive) and the
per-channel digests of the attacker-visible trace.  A wedged simulation
must wedge identically in both runs (same exception, same message, same
cycle).

The cells run through :func:`repro.harness.parallel.fan_out` with
``REPRO_JOBS`` workers, as ``repro check``'s do; the grid flags are the
ones ``repro check`` takes, and a usage error exits 2.

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
from repro.core.spt import ReferenceSPTEngine, SPTEngine
from repro.harness.configs import Grid, at_least_one, make_engine
from repro.harness.parallel import (RunFailure, RunSpec, default_jobs,
                                    fan_out)
from repro.isa.instructions import Program
from repro.pipeline.core import OoOCore, SimulationError
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


def reference_engine(engine: ProtectionEngine) -> ProtectionEngine:
    """``engine`` for the reference run: SPT swaps to the per-entry
    :class:`~repro.core.spt.ReferenceSPTEngine`."""
    if type(engine) is SPTEngine:
        return ReferenceSPTEngine(engine.model, backward=engine.backward,
                                  shadow=engine.shadow_mode,
                                  ideal=engine.ideal)
    return engine


def run_outcome(program: Program, engine: ProtectionEngine, budget: int,
                check_level: str = "off") -> tuple:
    """One run of ``program`` as ``(core, comparable outcome)``.

    ``check_level="full"`` with :func:`reference_engine` makes it the
    reference run; ``"off"`` with the configuration's own engine is the
    default run.
    """
    core = OoOCore(program, engine=engine,
                   params=MachineParams(check_level=check_level),
                   record_retired_pcs=True)
    try:
        sim = core.run(max_instructions=budget)
    except (SimulationError, InvariantViolation) as exc:
        # A wedge is an outcome too: both runs must wedge identically.
        return core, {"error": f"{type(exc).__name__}: {exc}"}
    return core, {
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
    engine = make_engine(config, model)
    if reference:
        engine = reference_engine(engine)
    return run_outcome(get_workload(workload).program(scale), engine, budget,
                       check_level="full" if reference else "off")[1]


def compare_cell(ref: dict, run: dict) -> list:
    """Human-readable mismatch descriptions (empty = bit-identical)."""
    if "error" in ref or "error" in run:
        if ref.get("error") == run.get("error"):
            return []
        return [f"outcome: reference={ref.get('error', 'completed')!r} "
                f"default={run.get('error', 'completed')!r}"]
    mismatches = []
    for field in ("cycles", "retired", "halted"):
        if ref[field] != run[field]:
            mismatches.append(
                f"{field}: reference={ref[field]} default={run[field]}")
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


def diff_cell(spec: RunSpec) -> list:
    """One cell's :func:`compare_cell` of its reference and default runs
    (module-level: the fan-out pickles it)."""
    cell = (spec.workload, spec.config, spec.model, spec.scale,
            spec.max_instructions)
    return compare_cell(run_cell(*cell, reference=True), run_cell(*cell))


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    workloads, configs, models, budget = GRID.select(args)
    cells = [RunSpec(w, c, m, scale=args.scale, max_instructions=budget)
             for w in workloads for c in configs for m in models]
    try:
        outcomes = fan_out(diff_cell, cells, default_jobs())
    except RunFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    failures = 0
    for spec, mismatches in zip(cells, outcomes):
        if mismatches:
            failures += 1
            print(f"MISMATCH {spec.workload}/{spec.config}/"
                  f"{spec.model.value}:", file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
    verdict = "bit-identical" if not failures else f"{failures} DIVERGENT"
    print(f"backend-diff: {len(cells)} cells x default and reference runs "
          f"(budget {budget}, scale {args.scale}): {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
