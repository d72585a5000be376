"""``repro stats`` and ``repro bench`` subcommands.

``stats`` runs one (workload, configuration, model) cell and renders the
hierarchical metrics tree — gem5-``stats.txt``-style text by default,
``--json`` for the nested form the result cache stores.  The Appendix A.4
artifact interface (``python -m repro.cli <workload> ...``) writes the same
lines into its ``stats.txt``, with the artifact's four header lines in
place of ``sim.*``.

``bench record`` writes a schema-versioned performance snapshot (with
``--perfbench LOG...``, also the repo benchmark's end-to-end medians);
``bench compare`` diffs two snapshots and exits non-zero on regression
(see :mod:`repro.obs.bench`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.core.attack_model import AttackModel
from repro.harness.configs import (CONFIGURATIONS, at_least_one,
                                   finite_at_least_zero, workload_name)
from repro.harness.runner import run_one
from repro.obs import bench


def _build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Run one simulation and render its metrics hierarchy.")
    parser.add_argument("workload", type=workload_name,
                        help="registered workload name")
    parser.add_argument("--config", default="UnsafeBaseline",
                        choices=sorted(CONFIGURATIONS),
                        help="Table 2 configuration (default: UnsafeBaseline)")
    parser.add_argument("--threat-model", choices=["spectre", "futuristic"],
                        default="futuristic")
    parser.add_argument("--scale", type=at_least_one, default=1)
    parser.add_argument("--max-instructions", type=at_least_one,
                        default=100_000)
    parser.add_argument("--json", action="store_true",
                        help="emit the nested JSON form instead of text")
    return parser


def stats_main(argv: Optional[list] = None) -> int:
    args = _build_stats_parser().parse_args(argv)
    result = run_one(args.workload, args.config,
                     model=AttackModel(args.threat_model),
                     scale=args.scale,
                     max_instructions=args.max_instructions)
    if args.json:
        print(json.dumps(result.metrics.as_dict(), indent=2, sort_keys=True))
        return 0
    title = (f"Simulation Metrics: {result.workload} under {result.config} "
             f"({result.model.value})")
    sys.stdout.write(result.metrics.render(title))
    return 0


def _build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Record and compare performance-trajectory snapshots.")
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="measure and write a snapshot")
    record.add_argument("-o", "--output", default=None,
                        help="output path (default: the first free name "
                             "of BENCH_<date>.json, BENCH_<date>b.json, ...)")
    record.add_argument("--budget", type=at_least_one, default=None,
                        help="retired-instruction budget per run "
                             "(default: REPRO_BENCH_BUDGET or 2500)")
    record.add_argument("--scale", type=at_least_one, default=None)
    record.add_argument("--jobs", type=at_least_one, default=None)
    record.add_argument("--reps", type=at_least_one, default=3,
                        help="throughput-probe repetitions (best wins)")
    record.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache")
    record.add_argument("--perfbench", nargs="+", default=None,
                        metavar="LOG",
                        help="stdout logs of perfbench/run.py --trace 0 "
                             "runs; their medians become the snapshot's "
                             "end_to_end section")

    compare = sub.add_parser(
        "compare", help="diff two snapshots; non-zero exit on regression")
    compare.add_argument("baseline", help="baseline BENCH_*.json")
    compare.add_argument("current", help="current BENCH_*.json")
    compare.add_argument("--throughput-tolerance", type=finite_at_least_zero,
                         default=0.30,
                         help="allowed fractional throughput loss "
                              "(default: 0.30)")
    compare.add_argument("--overhead-tolerance", type=finite_at_least_zero,
                         default=1e-6,
                         help="allowed absolute drift per headline overhead")
    compare.add_argument("--stall-tolerance", type=finite_at_least_zero,
                         default=1e-6,
                         help="allowed absolute drift per stall fraction")

    profile = sub.add_parser(
        "profile", help="cProfile the CI bench cell and dump pstats")
    profile.add_argument("-o", "--output", default="BENCH_profile.pstats",
                         help="pstats dump path "
                              "(default: BENCH_profile.pstats)")
    profile.add_argument("--budget", type=at_least_one, default=None)
    profile.add_argument("--scale", type=at_least_one, default=None)
    profile.add_argument("--runs", type=at_least_one, default=3,
                         help="profiled repetitions (default: 3)")
    profile.add_argument("--top", type=int, default=25,
                         help="rows per sort order in the text summary")

    show = sub.add_parser("show", help="summarise a snapshot")
    show.add_argument("snapshot", help="BENCH_*.json to render")
    return parser


def bench_main(argv: Optional[list] = None) -> int:
    args = _build_bench_parser().parse_args(argv)
    if args.command == "record":
        end_to_end = None
        if args.perfbench:
            try:
                end_to_end = bench.end_to_end_section(args.perfbench)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        snapshot = bench.record_snapshot(
            budget=args.budget, scale=args.scale, jobs=args.jobs,
            use_cache=False if args.no_cache else None, reps=args.reps)
        if end_to_end is not None:
            snapshot["end_to_end"] = end_to_end
        path = bench.write_snapshot(
            snapshot, args.output or bench.default_snapshot_name())
        print(bench.render_snapshot(snapshot))
        print(f"snapshot written to {path}")
        return 0
    if args.command == "compare":
        try:
            baseline = bench.load_snapshot(args.baseline)
            current = bench.load_snapshot(args.current)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        failures = bench.compare_snapshots(
            baseline, current,
            throughput_tolerance=args.throughput_tolerance,
            overhead_tolerance=args.overhead_tolerance,
            stall_tolerance=args.stall_tolerance)
        deltas = bench.end_to_end_deltas(baseline, current)
        if deltas:
            print("end-to-end medians (reported, not gated):")
            for delta in deltas:
                print(f"  {delta}")
        if failures:
            print(f"{len(failures)} regression(s) against {args.baseline}:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"no regressions against {args.baseline}")
        return 0
    if args.command == "profile":
        summary = bench.profile_cell(
            args.output, budget=args.budget, scale=args.scale,
            runs=args.runs, top=args.top)
        print(summary)
        print(f"pstats written to {args.output}")
        return 0
    try:
        snapshot = bench.load_snapshot(args.snapshot)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(bench.render_snapshot(snapshot))
    return 0
