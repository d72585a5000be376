"""``repro pentest``: run the attack scenario matrix from the command line.

Examples::

    python -m repro.cli pentest                          # the full matrix
    python -m repro.cli pentest --scenario spectre-rsb
    python -m repro.cli pentest --configs UnsafeBaseline,STT --jobs 4
    python -m repro.cli pentest --json

Exit status is 0 when every cell matches the leak rule
(:func:`repro.security.attacks.expected_to_leak`), 1 otherwise — so CI can
gate on it — and 2 for a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.harness.configs import (MODELS_HELP, at_least_one,
                                   parse_config_names, parse_models)
from repro.harness.parallel import RunFailure
from repro.security.scenarios import SCENARIOS, render_matrix, scenario_matrix


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro pentest",
        description="Run attack scenarios against the Table 2 "
                    "configurations and check the leak matrix.")
    parser.add_argument("--scenario", action="append", dest="scenarios",
                        metavar="NAME",
                        help="scenario to run (repeatable; default: all). "
                             f"Known: {', '.join(sorted(SCENARIOS))}")
    parser.add_argument("--configs", type=parse_config_names, default="all",
                        help="comma-separated Table 2 configuration names "
                             "(default: all)")
    parser.add_argument("--models", type=parse_models, default="both",
                        help=MODELS_HELP)
    parser.add_argument("--jobs", type=at_least_one, default=None,
                        help="worker processes for the matrix (default: "
                             "REPRO_JOBS or CPU count)")
    parser.add_argument("--json", action="store_true",
                        help="emit the matrix as JSON instead of a table")
    parser.add_argument("--list", action="store_true",
                        help="list the registered scenarios and exit")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        width = max(len(name) for name in SCENARIOS)
        for name, s in SCENARIOS.items():
            print(f"{name:<{width}}  [{s.variant}; {s.exposure}] {s.summary}")
        return 0
    names = args.scenarios or list(SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            print(f"error: unknown scenario {name!r}; known: "
                  f"{', '.join(sorted(SCENARIOS))}", file=sys.stderr)
            return 2
    try:
        results = scenario_matrix(scenarios=names, configs=args.configs,
                                  models=args.models, jobs=args.jobs)
    except RunFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    failures = [r for r in results if not r.passed]
    if args.json:
        print(json.dumps([{
            "scenario": r.scenario, "config": r.config, "model": r.model,
            "leaked": r.leaked, "expected": r.expected, "passed": r.passed,
        } for r in results], indent=2))
    else:
        print(render_matrix(results))
        print(f"\n{len(results)} cells, {len(results) - len(failures)} "
              f"matching the expectation table.")
    if failures:
        for r in failures:
            print(f"MISMATCH: {r.scenario} under {r.config}/{r.model}: "
                  f"leaked={r.leaked}, expected={r.expected}",
                  file=sys.stderr)
        return 1
    return 0
