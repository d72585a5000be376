"""``repro fuzz`` — the campaign command-line front end.

Examples::

    python -m repro.cli fuzz --seeds 200 --minimize --corpus-dir fuzz-corpus
    python -m repro.cli fuzz --seeds 25 --jobs 2 --configs UnsafeBaseline,STT \\
        --models futuristic
    python -m repro.cli fuzz --adversarial --profile hard --budget 400 \\
        --compare-uniform

Exit status is 0 only when the campaign is clean: no secure-configuration
counterexample, no generator-invariant breakage, and the UnsafeBaseline
sanity signal fired (when UnsafeBaseline was part of the sweep) — so a CI
job can gate directly on this command.  A cell whose run fails (say, a
victim that cannot halt within ``--max-instructions``) exits 1 as well.

``--adversarial`` switches from uniform seed sampling to the guided
hill-climbing search of :mod:`repro.fuzz.adversarial` against a single
target cell: the first of ``--configs`` (UnsafeBaseline by default) under
the first of ``--models`` (spectre by default).  Exit status is 1 only for
a protection-scope counterexample.

A usage error, such as a count below 1 or an unknown configuration or
attack model, exits 2 before anything simulates.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.fuzz.generator import PROFILES
from repro.fuzz.oracle import FUZZ_BUDGET
from repro.fuzz.report import render_report
from repro.harness.configs import (MODELS_HELP, at_least_one,
                                   at_least_zero, parse_config_names,
                                   parse_models)
from repro.harness.parallel import RunFailure


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run_spt fuzz",
        description="Run a randomized leakage-hunting campaign against the "
                    "protection configurations (non-interference oracle).")
    parser.add_argument("--seeds", type=at_least_one, default=50,
                        help="number of victim programs to fuzz (default 50)")
    parser.add_argument("--seed-start", type=int, default=0,
                        help="first seed (campaigns are deterministic per "
                             "seed; shift this to explore new victims)")
    parser.add_argument("--profile", default="default",
                        choices=sorted(PROFILES),
                        help="generator profile (victim size/shape)")
    parser.add_argument("--configs", type=parse_config_names, default="all",
                        help="comma-separated Table 2 configuration names, "
                             "or 'all' (default)")
    parser.add_argument("--models", type=parse_models, default="both",
                        help=MODELS_HELP)
    parser.add_argument("--jobs", type=at_least_one, default=None,
                        help="worker processes (default: REPRO_JOBS or CPU "
                             "count)")
    parser.add_argument("--minimize", action="store_true",
                        help="delta-debug every counterexample down to a "
                             "minimal gadget before recording it")
    parser.add_argument("--corpus-dir", default=None,
                        help="persistent corpus directory recording every "
                             "seed's verdicts and counterexamples (default: "
                             "in-memory only)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache")
    parser.add_argument("--max-instructions", type=at_least_one,
                        default=FUZZ_BUDGET,
                        help="per-run retired-instruction budget "
                             f"(default {FUZZ_BUDGET})")
    adv = parser.add_argument_group(
        "adversarial mode",
        "guided hill-climbing search instead of uniform seed sampling")
    adv.add_argument("--adversarial", action="store_true",
                     help="hill-climb over mutated plans, scored by "
                          "speculative taint reach, against one target "
                          "configuration")
    adv.add_argument("--budget", type=at_least_one, default=150,
                     help="simulation budget per search (adversarial mode; "
                          "default 150)")
    adv.add_argument("--patience", type=at_least_zero, default=6,
                     help="non-improving candidates before a random restart "
                          "(default 6)")
    adv.add_argument("--compare-uniform", action="store_true",
                     help="also run the uniform-sampling baseline under the "
                          "same budget and report the sims-to-leak of both")
    return parser


def _run_adversarial(args) -> int:
    from repro.fuzz.adversarial import (hill_climb, render_outcome,
                                        uniform_search)
    config, model = args.configs[0], args.models[0]
    outcome = hill_climb(profile=args.profile, config=config, model=model,
                         budget=args.budget, seed=args.seed_start,
                         patience=args.patience,
                         max_instructions=args.max_instructions)
    print(render_outcome(outcome))
    if args.compare_uniform:
        base = uniform_search(profile=args.profile, config=config,
                              model=model, budget=args.budget,
                              seed_start=args.seed_start * 1000,
                              max_instructions=args.max_instructions)
        print(render_outcome(base))
        if outcome.found and not base.found:
            print(f"advantage: hill-climb leaked in {outcome.sims} sims; "
                  f"uniform found none in {base.sims} sims of its "
                  f"{args.budget}-sim budget.")
        elif outcome.found and base.found:
            print(f"advantage: hill-climb {outcome.sims} sims vs uniform "
                  f"{base.sims} sims.")
        else:
            print("no leak found by either search within budget.")
    return 1 if outcome.counterexample else 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.adversarial:
        return _run_adversarial(args)
    cfg = CampaignConfig(
        seeds=args.seeds, seed_start=args.seed_start, profile=args.profile,
        configs=args.configs, models=args.models,
        jobs=args.jobs, minimize=args.minimize,
        corpus_dir=args.corpus_dir,
        use_cache=False if args.no_cache else None,
        max_instructions=args.max_instructions)
    try:
        report = run_campaign(cfg)
    except RunFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    print(render_report(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
