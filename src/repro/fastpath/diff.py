"""``repro backend-diff`` — pin the default run against the reference run.

Runs every (workload, configuration, attack model) cell of a grid twice
and demands *bit-identical* outcomes:

* the **default run** is :meth:`OoOCore.run` as every figure, campaign
  and benchmark calls it: the batched path with quiescent fast-forward
  live, and the packed :class:`~repro.core.spt.SPTEngine`;
* the **reference run** steps the per-instruction phases every cycle
  under the full lockstep sanitizer (``check_level="full"``), with
  :class:`~repro.core.spt.ReferenceSPTEngine` in place of ``SPTEngine``.

Compared are cycle counts, the retired-PC stream, the architectural
register file, every metric path of the metrics tree (less the
sanitizer's own ``check`` group: the sanitizer is passive) and the
per-channel digests of the attacker-visible trace.  A wedged simulation
must wedge identically in both runs (same exception, same message, same
cycle).

Examples::

    python -m repro.cli backend-diff --smoke
    python -m repro.cli backend-diff                  # full Figure 7 grid
    python -m repro.cli backend-diff --workloads mcf --budget 20000
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.check.cli import _parse_configs, _parse_workloads
from repro.check.violation import InvariantViolation
from repro.core.attack_model import AttackModel
from repro.core.spt import ReferenceSPTEngine, SPTEngine
from repro.harness.configs import FIGURE7_ORDER, make_engine
from repro.isa.instructions import Program
from repro.pipeline.core import OoOCore, SimulationError
from repro.pipeline.engine_api import ProtectionEngine
from repro.pipeline.params import MachineParams
from repro.security.observer import channel_digests, differing_channels
from repro.workloads.registry import WORKLOADS, get as get_workload

BOTH_MODELS = (AttackModel.SPECTRE, AttackModel.FUTURISTIC)

SMOKE_WORKLOADS = ("mcf", "chacha20")
SMOKE_CONFIGS = ("UnsafeBaseline", "SecureBaseline", "STT",
                 "SPT{Bwd,ShadowL1}")
SMOKE_BUDGET = 3000
FULL_BUDGET = 2000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run_spt backend-diff",
        description="Run a grid as default and as reference runs and "
                    "require bit-identical results.")
    parser.add_argument("--smoke", action="store_true",
                        help=f"small CI grid: {len(SMOKE_WORKLOADS)} "
                             f"workloads x {len(SMOKE_CONFIGS)} configs x "
                             f"both models, budget {SMOKE_BUDGET}")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workload names "
                             "(default: all, or the smoke set)")
    parser.add_argument("--configs", default=None,
                        help="comma-separated Table 2 configuration names "
                             "(default: the Figure 7 set, or the smoke set)")
    parser.add_argument("--models", default="both",
                        choices=["spectre", "futuristic", "both"])
    parser.add_argument("--budget", type=int, default=None,
                        help="per-run retired-instruction budget "
                             f"(default {FULL_BUDGET}, smoke {SMOKE_BUDGET})")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor")
    return parser


def reference_engine(engine: ProtectionEngine) -> ProtectionEngine:
    """``engine`` for the reference run: SPT swaps to its per-entry twin."""
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


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        workloads = list(SMOKE_WORKLOADS)
        configs = list(SMOKE_CONFIGS)
        budget = args.budget or SMOKE_BUDGET
    else:
        workloads = sorted(WORKLOADS)
        configs = ["UnsafeBaseline"] + list(FIGURE7_ORDER)
        budget = args.budget or FULL_BUDGET
    if args.workloads:
        workloads = _parse_workloads(args.workloads)
    if args.configs:
        configs = _parse_configs(args.configs)
    models = list(BOTH_MODELS) if args.models == "both" \
        else [AttackModel(args.models)]

    cells = [(w, c, m) for w in workloads for c in configs for m in models]
    failures = 0
    for workload, config, model in cells:
        ref = run_cell(workload, config, model, args.scale, budget,
                       reference=True)
        run = run_cell(workload, config, model, args.scale, budget)
        mismatches = compare_cell(ref, run)
        if mismatches:
            failures += 1
            print(f"MISMATCH {workload}/{config}/{model.value}:",
                  file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
    verdict = "bit-identical" if not failures else f"{failures} DIVERGENT"
    print(f"backend-diff: {len(cells)} cells x default and reference runs "
          f"(budget {budget}, scale {args.scale}): {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
