"""``repro check`` — sweep a grid with the lockstep sanitizer enabled.

Runs (workload, configuration, attack model) cells with
``MachineParams.check_level`` raised (default ``full``) and reports
per-invariant evaluation counts.  Any :class:`InvariantViolation` fails
the sweep with the offending cell and the full violation report, so a CI
job can gate directly on this command.  ``--level full`` runs the core in
stepped mode (every cycle stepped, window scans at its end); ``--level
commit`` locksteps the default run every figure and campaign takes,
fast-forward included.

A usage error (a budget or job count below 1, an unknown workload,
configuration or attack model) exits 2 before anything simulates.

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
from repro.harness.configs import Grid, at_least_one
from repro.harness.parallel import RunFailure, RunSpec, run_many
from repro.pipeline.params import MachineParams

# The CI smoke grid: one memory-bound SPEC workload, one branchy SPEC
# workload, one constant-time kernel — against one representative of each
# protection family.
SMOKE_WORKLOADS = ("mcf", "xalancbmk", "chacha20")
SMOKE_CONFIGS = ("UnsafeBaseline", "SecureBaseline", "STT",
                 "SPT{Bwd,ShadowL1}")
SMOKE_BUDGET = 1500
FULL_BUDGET = 2000
GRID = Grid(SMOKE_WORKLOADS, SMOKE_CONFIGS, SMOKE_BUDGET, FULL_BUDGET)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run_spt check",
        description="Run the lockstep invariant sanitizer over a grid of "
                    "(workload, configuration, attack model) cells.")
    GRID.add_arguments(parser)
    parser.add_argument("--level", default="full",
                        choices=["commit", "full"],
                        help="check level for the sweep (default full)")
    parser.add_argument("--jobs", type=at_least_one, default=None,
                        help="worker processes (default: REPRO_JOBS or "
                             "CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache")
    return parser


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
    workloads, configs, models, budget = GRID.select(args)
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
