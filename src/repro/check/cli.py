"""``repro check`` — sweep a grid with the lockstep sanitizer enabled.

Runs (workload, configuration, attack model) cells with
``MachineParams.check_level`` raised (default ``full``) and reports
per-invariant evaluation counts.  Any :class:`InvariantViolation` fails
the sweep with the offending cell and the full violation report, so a CI
job can gate directly on this command.  ``--level full`` runs the core in
stepped mode (every cycle stepped, window scans at its end); ``--level
commit`` locksteps the default run every figure and campaign takes,
fast-forward included.

Examples::

    python -m repro.cli check --smoke
    python -m repro.cli check --workloads mcf,chacha20 --configs STT \\
        --models spectre --budget 5000
    python -m repro.cli check             # the full grid (nightly)
    python -m repro.cli check --level commit    # with fast-forward
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.check.invariants import INVARIANTS
from repro.core.attack_model import AttackModel
from repro.harness.configs import CONFIGURATIONS, parse_config_names
from repro.harness.parallel import RunFailure, RunSpec, run_many
from repro.pipeline.params import MachineParams
from repro.workloads.registry import WORKLOADS

BOTH_MODELS = (AttackModel.SPECTRE, AttackModel.FUTURISTIC)

# The CI smoke grid: one memory-bound SPEC workload, one branchy SPEC
# workload, one constant-time kernel — against one representative of each
# protection family.
SMOKE_WORKLOADS = ("mcf", "xalancbmk", "chacha20")
SMOKE_CONFIGS = ("UnsafeBaseline", "SecureBaseline", "STT",
                 "SPT{Bwd,ShadowL1}")
SMOKE_BUDGET = 1500
FULL_BUDGET = 2000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run_spt check",
        description="Run the lockstep invariant sanitizer over a grid of "
                    "(workload, configuration, attack model) cells.")
    parser.add_argument("--smoke", action="store_true",
                        help=f"small CI grid: {len(SMOKE_WORKLOADS)} "
                             f"workloads x {len(SMOKE_CONFIGS)} configs x "
                             f"both models, budget {SMOKE_BUDGET}")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workload names "
                             "(default: all, or the smoke set)")
    parser.add_argument("--configs", default=None,
                        help="comma-separated Table 2 configuration names "
                             "(default: all, or the smoke set)")
    parser.add_argument("--models", default="both",
                        choices=["spectre", "futuristic", "both"],
                        help="attack model(s) to check under (default both)")
    parser.add_argument("--level", default="full",
                        choices=["commit", "full"],
                        help="check level for the sweep (default full)")
    parser.add_argument("--budget", type=int, default=None,
                        help="per-run retired-instruction budget "
                             f"(default {FULL_BUDGET}, "
                             f"smoke {SMOKE_BUDGET})")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or "
                             "CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache")
    return parser


def _parse_workloads(text: str) -> list:
    names = [name.strip() for name in text.split(",") if name.strip()]
    for name in names:
        if name not in WORKLOADS:
            raise SystemExit(
                f"error: unknown workload {name!r}; "
                f"known: {', '.join(sorted(WORKLOADS))}")
    if not names:
        raise SystemExit("error: --workloads selected nothing")
    return names


def check_counts(metrics) -> dict:
    """Per-invariant pass counts from a run's metrics tree."""
    passed = metrics.group("check.passed")
    return dict(passed.scalars) if passed is not None else {}


def render_report(counts: dict, cells: int, level: str) -> str:
    lines = [f"sanitizer sweep: {cells} cells clean at "
             f"check_level={level}",
             "per-invariant evaluations:"]
    width = max((len(name) for name in counts), default=10)
    for invariant in sorted(INVARIANTS):
        spec = INVARIANTS[invariant]
        count = counts.get(invariant, 0)
        note = "" if count else "   (never exercised on this grid)"
        lines.append(f"  {invariant:<{width}}  {count:>10}  "
                     f"[{spec.level}] {spec.section}{note}")
    lines.append(f"  {'total':<{width}}  {sum(counts.values()):>10}")
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        workloads = list(SMOKE_WORKLOADS)
        configs = list(SMOKE_CONFIGS)
        budget = args.budget or SMOKE_BUDGET
    else:
        workloads = sorted(WORKLOADS)
        configs = list(CONFIGURATIONS)
        budget = args.budget or FULL_BUDGET
    if args.workloads:
        workloads = _parse_workloads(args.workloads)
    if args.configs:
        configs = parse_config_names(args.configs)
    models = list(BOTH_MODELS) if args.models == "both" \
        else [AttackModel(args.models)]

    params = MachineParams(check_level=args.level)
    specs = [RunSpec(workload, config, model, max_instructions=budget,
                     params=params)
             for workload in workloads
             for config in configs
             for model in models]
    try:
        results = run_many(specs, jobs=args.jobs,
                           use_cache=False if args.no_cache else None)
    except RunFailure as failure:
        print(f"INVARIANT VIOLATION in {failure.spec.describe()}:",
              file=sys.stderr)
        print(f"  {failure.cause}", file=sys.stderr)
        return 1

    totals: dict = {}
    for result in results:
        for invariant, count in check_counts(result.metrics).items():
            totals[invariant] = totals.get(invariant, 0) + count
    print(render_report(totals, len(specs), args.level))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
