"""``repro check`` — the checked sweep.

Every (workload, configuration, attack model) cell of a grid runs twice,
and the two outcomes must be bit-identical
(:func:`repro.check.diff.compare_cell`):

* the **default run**, :meth:`OoOCore.run` as every figure, campaign and
  benchmark calls it (fast-forward and DynInst recycling live), under the
  commit-level sanitizer: the golden interpreter at every retirement;
* the **reference run**, the same engine in stepped mode under the full
  sanitizer: the cycle-level window scans too, and a packed SPT engine
  held to the per-entry reference it runs beside.

When the grid has more than one configuration, every (workload, attack
model) also runs its configurations grouped, and each must equal its
separate default run (:func:`repro.check.diff.group_diff_cell`).

The cells fan out through :func:`repro.harness.parallel.fan_out`.  A run
that raises (an :class:`InvariantViolation` or a wedge) stops the sweep
at its cell: it exits 1 with one ``error:`` line naming the cell, the
run, the invariant and the cycle.  Every cell whose runs finish but
differ is reported as a ``MISMATCH``, and the sweep exits 1.  The report
gives per-invariant evaluation counts of the default and the reference
runs.

A usage error (a budget or job count below 1, an unknown workload,
configuration or attack model) exits 2 before anything simulates.

Examples::

    python -m repro.cli check --smoke
    python -m repro.cli check --workloads mcf,chacha20 --configs STT \\
        --models spectre --budget 5000
    python -m repro.cli check             # the full grid (nightly)
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Optional

from repro.check.diff import compare_cell, group_diff_cell, run_outcome
from repro.check.invariants import INVARIANTS
from repro.harness.configs import (CONFIGURATIONS, MODELS_HELP, at_least_one,
                                   make_engine, parse_config_names,
                                   parse_models, parse_workloads)
from repro.harness.parallel import (GroupSpecs, RunFailure, RunSpec,
                                    default_jobs, fan_out)
from repro.workloads.registry import WORKLOADS, get as get_workload

# The CI smoke grid: one memory-bound SPEC workload, one branchy SPEC
# workload, one constant-time kernel — against one representative of each
# protection family.
SMOKE_WORKLOADS = ("mcf", "xalancbmk", "chacha20")
SMOKE_CONFIGS = ("UnsafeBaseline", "SecureBaseline", "STT",
                 "SPT{Bwd,ShadowL1}")
SMOKE_BUDGET = 3000
FULL_BUDGET = 2000

# A cell's two runs, by name and check level, in the report's order.
RUNS = (("default", "commit"), ("reference", "full"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run_spt check",
        description="Run a grid as default runs under the commit-level "
                    "sanitizer and as reference runs under the full "
                    "sanitizer, and require bit-identical results.")
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"small CI grid: {len(SMOKE_WORKLOADS)} workloads x "
             f"{len(SMOKE_CONFIGS)} configs x both models, "
             f"budget {SMOKE_BUDGET}")
    parser.add_argument("--workloads", type=parse_workloads,
                        help="comma-separated workload names "
                             "(default: all, or the smoke set)")
    parser.add_argument("--configs", type=parse_config_names,
                        help="comma-separated Table 2 configuration "
                             "names (default: all, or the smoke set)")
    parser.add_argument("--models", type=parse_models, default="both",
                        help=MODELS_HELP)
    parser.add_argument("--budget", type=at_least_one,
                        help="per-run retired-instruction budget "
                             f"(default {FULL_BUDGET}, "
                             f"smoke {SMOKE_BUDGET})")
    parser.add_argument("--jobs", type=at_least_one, default=None,
                        help="worker processes (default: REPRO_JOBS or "
                             "CPU count)")
    return parser


def check_counts(metrics) -> dict:
    """Per-invariant pass counts from a run's metrics tree."""
    passed = metrics.group("check.passed")
    return dict(passed.scalars) if passed is not None else {}


def diff_cell(cell) -> tuple:
    """One cell's ``(mismatches, counts)`` (module-level: the fan-out
    pickles it).

    A RunSpec runs as each of :data:`RUNS`; a run that raises fails the
    cell with a :class:`RunFailure` naming the run.  Its mismatches are
    :func:`compare_cell`'s, and its counts the two runs' per-invariant
    evaluations.  A GroupSpecs' mismatches are :func:`group_diff_cell`'s,
    each followed by the departures; its unchecked runs count nothing.
    """
    if isinstance(cell, GroupSpecs):
        first = cell.specs[0]
        _, departures, mismatches = group_diff_cell(
            get_workload(first.workload).program(first.scale),
            [spec.config for spec in cell.specs], first.model,
            first.max_instructions)
        return (mismatches + departures if mismatches else []), ({}, {})
    program = get_workload(cell.workload).program(cell.scale)
    outcomes, counts = [], []
    for run, level in RUNS:
        core, outcome = run_outcome(
            program, make_engine(cell.config, cell.model),
            cell.max_instructions, check_level=level)
        if "error" in outcome:
            raise RunFailure(cell, f"the {run} run raised {outcome['error']}")
        outcomes.append(outcome)
        counts.append(core.checker.counts)
    default, reference = outcomes
    return compare_cell(reference, default), tuple(counts)


def render_report(counts: list) -> str:
    """The per-invariant evaluation counts, one column per run."""
    width = max(map(len, INVARIANTS))
    lines = ["per-invariant evaluations: "
             + ", ".join(f"{run} run at check_level={level}"
                         for run, level in RUNS),
             f"  {'':<{width}}"
             + "".join(f"  {run:>10}" for run, _ in RUNS)]
    for invariant in sorted(INVARIANTS):
        spec = INVARIANTS[invariant]
        row = [column[invariant] for column in counts]
        note = "" if any(row) else "   (never exercised on this grid)"
        lines.append(f"  {invariant:<{width}}"
                     + "".join(f"  {count:>10}" for count in row)
                     + f"  [{spec.level}] {spec.section}{note}")
    lines.append(f"  {'total':<{width}}" + "".join(
        f"  {sum(column.values()):>10}" for column in counts))
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    smoke = args.smoke
    workloads = args.workloads or list(SMOKE_WORKLOADS if smoke
                                       else sorted(WORKLOADS))
    configs = args.configs or list(SMOKE_CONFIGS if smoke
                                   else CONFIGURATIONS)
    budget = args.budget or (SMOKE_BUDGET if smoke else FULL_BUDGET)
    cells = [RunSpec(w, c, m, max_instructions=budget)
             for w in workloads for c in configs for m in args.models]
    groups = [GroupSpecs(tuple(RunSpec(w, c, m, max_instructions=budget)
                               for c in configs))
              for w in workloads for m in args.models] \
        if len(configs) > 1 else []
    try:
        outcomes = fan_out(diff_cell, cells + groups,
                           args.jobs or default_jobs())
    except RunFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    failures = 0
    totals = [Counter() for _ in RUNS]
    for cell, (mismatches, counts) in zip(cells + groups, outcomes):
        for total, count in zip(totals, counts):
            total.update(count)
        if mismatches:
            failures += 1
            spec = cell.specs[0] if isinstance(cell, GroupSpecs) else cell
            what = "grouped" if isinstance(cell, GroupSpecs) else spec.config
            print(f"MISMATCH {spec.workload}/{what}/{spec.model.value}:",
                  file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
    verdict = "bit-identical" if not failures else f"{failures} DIVERGENT"
    print(f"check: {len(cells)} cells x default and reference runs"
          + (f", {len(groups)} groups of {len(configs)} x grouped and "
             "separate runs" if groups else "")
          + f" (budget {budget}): {verdict}")
    print(render_report(totals))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
