"""``repro backend-diff`` — pin the vector backend against the reference.

Runs every (workload, configuration, attack model) cell of a grid under
both backends and demands *bit-identical* outcomes: cycle counts, the
retired-PC stream, architectural register file, flat stats, the full
metrics tree, and the per-channel digests of the attacker-visible trace.
A wedged simulation must wedge identically under both backends (same
exception, same message, same cycle).

This is the acceptance harness for ``backend="vector"``: unlike the
lockstep sanitizer (which checks the vector backend against the golden
interpreter cycle by cycle), this compares the two backends against each
other end-to-end with fast-forwarding *enabled*, so the quiescent-cycle
batching itself is under test.

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
from repro.core.attack_model import AttackModel
from repro.harness.configs import FIGURE7_ORDER, make_engine
from repro.pipeline.core import SimulationError, build_core
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
        description="Run a grid under both backends and require "
                    "bit-identical results.")
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


def run_backend(workload: str, config: str, model: AttackModel,
                scale: int, budget: int, backend: str) -> dict:
    """One cell under one backend, reduced to its comparable outcome."""
    program = get_workload(workload).program(scale)
    engine = make_engine(config, model)
    params = MachineParams(backend=backend)
    core = build_core(program, engine=engine, params=params,
                      record_retired_pcs=True)
    try:
        sim = core.run(max_instructions=budget)
    except SimulationError as exc:
        # A wedge is an outcome too: both backends must wedge identically.
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "cycles": sim.cycles,
        "retired": sim.retired,
        "halted": sim.halted,
        "retired_pcs": sim.retired_pcs,
        "arch_regs": sim.arch_regs,
        "stats": sim.stats,
        "metrics": sim.metrics.as_dict(),
        "digests": channel_digests(sim.observer, sim.cycles),
    }


def compare_cell(ref: dict, vec: dict) -> list:
    """Human-readable mismatch descriptions (empty = bit-identical)."""
    if "error" in ref or "error" in vec:
        if ref.get("error") == vec.get("error"):
            return []
        return [f"outcome: reference={ref.get('error', 'completed')!r} "
                f"vector={vec.get('error', 'completed')!r}"]
    mismatches = []
    for field in ("cycles", "retired", "halted"):
        if ref[field] != vec[field]:
            mismatches.append(
                f"{field}: reference={ref[field]} vector={vec[field]}")
    if ref["retired_pcs"] != vec["retired_pcs"]:
        index = next((i for i, (a, b) in
                      enumerate(zip(ref["retired_pcs"], vec["retired_pcs"]))
                      if a != b), min(len(ref["retired_pcs"]),
                                      len(vec["retired_pcs"])))
        mismatches.append(f"retired-PC stream diverges at retirement "
                          f"#{index}")
    if ref["arch_regs"] != vec["arch_regs"]:
        regs = [i for i, (a, b) in
                enumerate(zip(ref["arch_regs"], vec["arch_regs"])) if a != b]
        mismatches.append(f"architectural registers differ: {regs}")
    stat_keys = [k for k in sorted(set(ref["stats"]) | set(vec["stats"]))
                 if ref["stats"].get(k) != vec["stats"].get(k)]
    if stat_keys:
        mismatches.append(f"stats differ: {', '.join(stat_keys[:8])}")
    if ref["metrics"] != vec["metrics"]:
        mismatches.append("metrics trees differ")
    channels = differing_channels(ref["digests"], vec["digests"])
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
        ref = run_backend(workload, config, model, args.scale, budget,
                          "reference")
        vec = run_backend(workload, config, model, args.scale, budget,
                          "vector")
        mismatches = compare_cell(ref, vec)
        if mismatches:
            failures += 1
            print(f"MISMATCH {workload}/{config}/{model.value}:",
                  file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
    verdict = "bit-identical" if not failures else f"{failures} DIVERGENT"
    print(f"backend-diff: {len(cells)} cells x 2 backends "
          f"(budget {budget}, scale {args.scale}): {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
