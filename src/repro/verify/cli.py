"""``repro verify`` — the relational leak checker's command-line front end.

Examples::

    python -m repro.cli verify target                     # all named targets
    python -m repro.cli verify target chacha20 djbsort --scale 1
    python -m repro.cli verify plan --seeds 20 --profile quick
    python -m repro.cli verify plan-file counterexample.json
    python -m repro.cli verify crosscheck --seeds 20 --profile quick
    python -m repro.cli verify crosscheck --corpus-dir fuzz-corpus --json out.json

Exit status 0 means: every named target matched its documented expectation
(constant-time kernels ``safe``, attack gadgets ``leak`` with a confirmed
witness), or the cross-check found zero oracle disagreements.  ``plan`` /
``plan-file`` modes are informational and fail only on ``unknown``
(bounds too small to decide).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.fuzz.generator import PROFILES, generate_plan, plan_from_json
from repro.harness.configs import at_least_one, at_least_zero
from repro.verify.report import (checks_to_json, render_check,
                                 render_crosscheck, write_json)
from repro.verify.targets import TARGETS, check_plan, verify_target

_BOUND_FLAGS = ("spec_window", "spec_depth", "max_instructions",
                "max_explored", "max_leaks")


def _add_bound_args(parser: argparse.ArgumentParser) -> None:
    bounds = parser.add_argument_group(
        "bounds", "speculation bounds and exploration budgets")
    bounds.add_argument("--spec-window", type=at_least_zero, default=32,
                        help="transient instructions per misprediction "
                             "(default 32)")
    bounds.add_argument("--spec-depth", type=at_least_zero, default=1,
                        help="misprediction nesting depth (default 1)")
    bounds.add_argument("--max-instructions", type=at_least_one,
                        default=400_000,
                        help="architectural instruction budget")
    bounds.add_argument("--max-explored", type=at_least_one,
                        default=2_000_000,
                        help="total transient instruction budget")
    bounds.add_argument("--max-leaks", type=at_least_one, default=8,
                        help="stop after this many distinct leak sites")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="also write a JSON witness report to this path")


def _bounds(args: argparse.Namespace) -> dict:
    return {flag: getattr(args, flag) for flag in _BOUND_FLAGS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run_spt verify",
        description="Bounded symbolic speculative non-interference checks "
                    "(self-composition over the golden interpreter).")
    modes = parser.add_subparsers(dest="mode", required=True)

    target = modes.add_parser(
        "target", help="check named targets (crypto kernels, gadgets)")
    target.add_argument("names", nargs="*", default=[],
                        help=f"target names (default: all of "
                             f"{', '.join(sorted(TARGETS))})")
    target.add_argument("--scale", type=at_least_one, default=1,
                        help="workload scale factor (default 1)")
    _add_bound_args(target)

    plan = modes.add_parser(
        "plan", help="check generated fuzz plans by seed")
    plan.add_argument("--seeds", type=at_least_one, default=1,
                      help="number of consecutive seeds (default 1)")
    plan.add_argument("--seed-start", type=int, default=0)
    plan.add_argument("--profile", default="quick",
                      choices=sorted(PROFILES))
    _add_bound_args(plan)

    plan_file = modes.add_parser(
        "plan-file", help="check a plan-IR JSON file (e.g. a recorded "
                          "counterexample's plan)")
    plan_file.add_argument("path", help="path to plan JSON "
                                        "(plan_to_json format)")
    _add_bound_args(plan_file)

    cross = modes.add_parser(
        "crosscheck", help="replay victims through both oracles and fail "
                           "on verdict disagreement")
    cross.add_argument("--seeds", type=at_least_one, default=20,
                       help="fresh plans to cross-check (default 20; "
                            "ignored with --corpus-dir)")
    cross.add_argument("--seed-start", type=int, default=0)
    cross.add_argument("--profile", default="quick",
                       choices=sorted(PROFILES))
    cross.add_argument("--corpus-dir", default=None,
                       help="replay this fuzz corpus instead of fresh "
                            "plans (concrete verdicts from its records)")
    cross.add_argument("--limit", type=at_least_one, default=None,
                       help="cap on corpus records to replay")
    _add_bound_args(cross)
    return parser


def _run_targets(args: argparse.Namespace) -> int:
    names = args.names or sorted(TARGETS)
    unknown = [n for n in names if n not in TARGETS]
    if unknown:
        print(f"error: unknown target(s) {', '.join(unknown)}; "
              f"known: {', '.join(sorted(TARGETS))}", file=sys.stderr)
        return 2
    results = []
    expectations = {}
    ok = True
    for name in names:
        result = verify_target(name, scale=args.scale, **_bounds(args))
        expected = TARGETS[name].expected
        expectations[result.program] = expected
        results.append(result)
        print(render_check(result, expected))
        if result.verdict != expected:
            ok = False
        elif expected == "leak" and not any(w.confirmed
                                            for w in result.witnesses):
            print(f"    {name}: leak verdict but no confirmed witness")
            ok = False
    if args.json_path:
        write_json(checks_to_json(results, expectations), args.json_path)
        print(f"report written to {args.json_path}")
    return 0 if ok else 1


def _run_plans(args: argparse.Namespace) -> int:
    results = []
    undecided = 0
    for seed in range(args.seed_start, args.seed_start + args.seeds):
        result = check_plan(generate_plan(seed, args.profile),
                            **_bounds(args))
        results.append(result)
        print(render_check(result))
        if result.verdict == "unknown":
            undecided += 1
    if args.json_path:
        write_json(checks_to_json(results), args.json_path)
        print(f"report written to {args.json_path}")
    return 1 if undecided else 0


def _run_plan_file(args: argparse.Namespace) -> int:
    with open(args.path) as handle:
        data = json.load(handle)
    # Accept either a bare plan or a corpus counterexample record.
    plan_blob = data.get("plan", data) if isinstance(data, dict) else data
    result = check_plan(plan_from_json(plan_blob), **_bounds(args))
    print(render_check(result))
    if args.json_path:
        write_json(checks_to_json([result]), args.json_path)
        print(f"report written to {args.json_path}")
    return 1 if result.verdict == "unknown" else 0


def _run_crosscheck(args: argparse.Namespace) -> int:
    from repro.verify.crosscheck import cross_check_corpus, cross_check_seeds
    if args.corpus_dir is not None:
        from repro.fuzz.corpus import Corpus
        report = cross_check_corpus(Corpus(args.corpus_dir),
                                    limit=args.limit, **_bounds(args))
    else:
        report = cross_check_seeds(args.seeds, args.profile,
                                   seed_start=args.seed_start,
                                   **_bounds(args))
    print(render_crosscheck(report))
    if args.json_path:
        write_json(report.to_json(), args.json_path)
        print(f"report written to {args.json_path}")
    return 0 if report.ok else 1


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.mode == "target":
        return _run_targets(args)
    if args.mode == "plan":
        return _run_plans(args)
    if args.mode == "plan-file":
        return _run_plan_file(args)
    return _run_crosscheck(args)


if __name__ == "__main__":
    raise SystemExit(main())
