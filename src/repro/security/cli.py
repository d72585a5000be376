"""``repro pentest``: run the attack scenario matrix from the command line.

Examples::

    python -m repro.cli pentest                          # the full matrix
    python -m repro.cli pentest --scenario spectre-rsb
    python -m repro.cli pentest --configs UnsafeBaseline,STT --jobs 4
    python -m repro.cli pentest --json

Exit status is 0 when every cell matches the declarative expectation table
of :mod:`repro.security.scenarios`, 1 otherwise — so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.core.attack_model import AttackModel
from repro.harness.configs import parse_config_names
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
    parser.add_argument("--configs", default="all",
                        help="comma-separated Table 2 configuration names "
                             "(default: all)")
    parser.add_argument("--models", default="spectre,futuristic",
                        help="attack models to run under "
                             "(default: spectre,futuristic)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the matrix (default: 1)")
    parser.add_argument("--json", action="store_true",
                        help="emit the matrix as JSON instead of a table")
    parser.add_argument("--list", action="store_true",
                        help="list the registered scenarios and exit")
    return parser


def _parse_models(text: str) -> list:
    models = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            models.append(AttackModel(part))
        except ValueError:
            raise SystemExit(
                f"error: unknown attack model {part!r}; "
                f"known: {', '.join(m.value for m in AttackModel)}")
    if not models:
        raise SystemExit("error: --models selected nothing")
    return models


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
    results = scenario_matrix(scenarios=names,
                              configs=parse_config_names(args.configs),
                              models=_parse_models(args.models),
                              jobs=args.jobs)
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
