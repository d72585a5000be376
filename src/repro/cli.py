"""Artifact-compatible command-line interface.

The paper's artifact drives gem5 through a helper script ``run_spt.py``
(Appendix A.4).  This CLI accepts the same parameters against this
reproduction's simulator and emits a gem5-style ``stats.txt``.  The file
opens with the artifact's four header lines (``numCycles``,
``committedInsts``, ``ipc``, ``configName``); every other line is one
metric of the run's tree under its dotted path, as ``repro stats`` prints
it (``frontend.fetched``, ``engine.untaint.vp-branch``, ...):

========================  =======================================
Artifact parameter        Here
========================  =======================================
``executable``            a registered workload name, or a path to
                          an ``.asm`` file in this ISA
``--enable-spt``          enable SPT's protection mechanism
``--threat-model``        ``spectre`` or ``futuristic``
``--untaint-method``      ``none`` (SecureBaseline), ``fwd``,
                          ``bwd`` or ``ideal``
``--enable-shadow-l1``    L1D taint tracking
``--enable-shadow-mem``   all-memory taint tracking
``--track-insts``         print the untaint-event breakdown
``--output-dir``          where ``stats.txt`` is written
========================  =======================================

Every valid flag set names one configuration: a Table 2 row, or an SPT
design point outside Table 2 (``--untaint-method fwd --enable-shadow-l1``
is ``SPT{Fwd,ShadowL1}``).  Registered workloads run through the cached
parallel harness (:func:`~repro.harness.parallel.run_many`) whatever the
flags; an ``.asm`` file runs directly
(:func:`~repro.harness.runner.simulate`).

Examples::

    python -m repro.cli mcf --enable-spt --threat-model futuristic \\
        --untaint-method bwd --enable-shadow-l1
    python -m repro.cli chacha20 --stt --threat-model spectre
    python -m repro.cli program.asm          # InsecureBaseline
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from repro.core.attack_model import AttackModel
from repro.harness.configs import at_least_one
from repro.harness.parallel import RunSpec, run_many
from repro.harness.runner import RunResult, simulate
from repro.isa.assembler import assemble
from repro.isa.instructions import Program
from repro.obs.metrics import Metrics
from repro.pipeline.params import MachineParams
from repro.workloads.registry import WORKLOADS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run_spt",
        description="Run a program on the SPT reproduction simulator "
                    "(parameters mirror the paper's artifact).")
    parser.add_argument("executable", nargs="+",
                        help="registered workload name(s) or path(s) to "
                             ".asm files; several run as one parallel sweep")
    parser.add_argument("--enable-spt", action="store_true",
                        help="enable SPT's protection mechanism")
    parser.add_argument("--stt", action="store_true",
                        help="run the STT baseline instead of SPT")
    parser.add_argument("--threat-model", choices=["spectre", "futuristic"],
                        help="required with --enable-spt or --stt")
    parser.add_argument("--untaint-method",
                        choices=["none", "fwd", "bwd", "ideal"],
                        help="required with --enable-spt")
    parser.add_argument("--enable-shadow-l1", action="store_true")
    parser.add_argument("--enable-shadow-mem", action="store_true")
    parser.add_argument("--track-insts", action="store_true",
                        help="output detailed taint tracking information")
    parser.add_argument("--output-dir", default="m5out",
                        help="directory for stats.txt (default: m5out)")
    parser.add_argument("--max-instructions", type=at_least_one,
                        default=1_000_000)
    parser.add_argument("--scale", type=at_least_one, default=1,
                        help="workload scale factor")
    parser.add_argument("--untaint-broadcast-width", type=at_least_one,
                        default=3)
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache "
                             "(also: REPRO_NO_CACHE=1)")
    parser.add_argument("--jobs", type=at_least_one, default=None,
                        help="worker processes for multi-workload sweeps "
                             "(default: REPRO_JOBS or CPU count)")
    return parser


def validate_args(args: argparse.Namespace) -> Optional[str]:
    """Returns an error message for invalid combinations, or None."""
    if args.enable_shadow_l1 and args.enable_shadow_mem:
        return "cannot specify both --enable-shadow-l1 and --enable-shadow-mem"
    if args.enable_spt and args.stt:
        return "cannot specify both --enable-spt and --stt"
    if args.enable_spt and not args.threat_model:
        return "--threat-model is required when --enable-spt is specified"
    if args.enable_spt and not args.untaint_method:
        return "--untaint-method is required when --enable-spt is specified"
    if args.stt and not args.threat_model:
        return "--threat-model is required when --stt is specified"
    if args.track_insts and not args.enable_spt:
        return "--track-insts can only be specified with --enable-spt"
    if not args.enable_spt and (args.enable_shadow_l1
                                or args.enable_shadow_mem
                                or args.untaint_method):
        return "shadow/untaint options require --enable-spt"
    if args.untaint_method == "none" and (args.enable_shadow_l1
                                          or args.enable_shadow_mem):
        return ("shadow options cannot be used with --untaint-method none "
                "(SecureBaseline keeps no shadow)")
    writers: dict = {}
    for executable in args.executable:
        name = _stats_filename(executable, len(args.executable) > 1)
        if name in writers:
            return (f"{writers[name]!r} and {executable!r} would both "
                    f"write {name}")
        writers[name] = executable
    return None


def config_name_from_args(args: argparse.Namespace) -> str:
    """The configuration a valid flag set selects: a Table 2 name, or an
    SPT design point outside Table 2 such as ``SPT{Fwd,ShadowL1}``
    (:func:`repro.harness.configs.make_engine` builds either)."""
    if args.stt:
        return "STT"
    if not args.enable_spt:
        return "UnsafeBaseline"
    if args.untaint_method == "none":
        return "SecureBaseline"
    if args.enable_shadow_mem:
        shadow = "ShadowMem"
    elif args.enable_shadow_l1:
        shadow = "ShadowL1"
    else:
        shadow = "NoShadowL1"
    return f"SPT{{{args.untaint_method.capitalize()},{shadow}}}"


def load_program(path: str) -> Program:
    """Assemble the ``.asm`` file at ``path``."""
    if os.path.exists(path):
        with open(path) as handle:
            return assemble(handle.read(), name=os.path.basename(path))
    raise SystemExit(
        f"error: {path!r} is neither a registered workload "
        f"({', '.join(sorted(WORKLOADS))}) nor an existing .asm file")


def format_stats(result: RunResult) -> str:
    """The gem5-style ``stats.txt``: the artifact's four header lines, then
    the lines of ``Metrics.render`` less ``sim.*``, which the header states."""
    begin, *body = result.metrics.render("Simulation Statistics").splitlines()
    return "\n".join([
        begin,
        f"numCycles {result.cycles:>40} # total cycles simulated",
        f"committedInsts {result.retired:>36} # instructions retired",
        f"ipc {format(result.ipc, '.6f'):>47} # committed IPC",
        f"configName {result.config:>40} # protection configuration",
        *[line for line in body if not line.startswith("sim.")]]) + "\n"


def _print_track_insts(metrics: Metrics) -> None:
    untaint = metrics.group("engine.untaint")
    kinds = {} if untaint is None else {
        kind: count for kind, count in untaint.scalars.items()
        if kind != "total"}
    if not kinds:
        return
    print("untaint events:")
    for kind, count in sorted(kinds.items()):
        print(f"  {kind:<16} {count}")
    widths = untaint.dists.get("untaints_per_cycle")
    if widths:
        print("registers untainted per untainting cycle:")
        for width in sorted(widths):
            print(f"  {width:>3}: {widths[width]}")


def _stats_filename(executable: str, multiple: bool) -> str:
    if not multiple:
        return "stats.txt"
    stem = os.path.splitext(os.path.basename(executable))[0]
    return f"stats_{stem}.txt"


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Subcommands ride in front of the artifact-compatible interface.
    if argv and argv[0] == "fuzz":
        from repro.fuzz.cli import main as fuzz_main
        return fuzz_main(argv[1:])
    if argv and argv[0] == "stats":
        from repro.obs.cli import stats_main
        return stats_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.obs.cli import bench_main
        return bench_main(argv[1:])
    if argv and argv[0] == "pentest":
        from repro.security.cli import main as pentest_main
        return pentest_main(argv[1:])
    if argv and argv[0] == "check":
        from repro.check.cli import main as check_main
        return check_main(argv[1:])
    if argv and argv[0] == "verify":
        from repro.verify.cli import main as verify_main
        return verify_main(argv[1:])
    if argv and argv[0] == "cache":
        from repro.harness.cache_cli import cache_main
        return cache_main(argv[1:])
    args = build_parser().parse_args(argv)
    error = validate_args(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    params = MachineParams(
        untaint_broadcast_width=args.untaint_broadcast_width)
    model = (AttackModel(args.threat_model) if args.threat_model
             else AttackModel.FUTURISTIC)
    config = config_name_from_args(args)
    use_cache = False if args.no_cache else None

    # Registered workloads go through the cached parallel harness as one
    # spec list; .asm files, which no cache key names, run directly.
    # ``validate_args`` has rejected repeated executables.
    sweep = [name for name in args.executable if name in WORKLOADS]
    programs = {path: load_program(path) for path in args.executable
                if path not in WORKLOADS}
    results = dict(zip(sweep, run_many(
        [RunSpec(name, config, model, scale=args.scale,
                 max_instructions=args.max_instructions, params=params)
         for name in sweep], jobs=args.jobs, use_cache=use_cache)))
    for path, program in programs.items():
        sim = simulate(program, config, model, args.max_instructions, params)
        results[path] = RunResult(program.name, config, model, sim.cycles,
                                  sim.retired, sim.metrics)

    os.makedirs(args.output_dir, exist_ok=True)
    multiple = len(args.executable) > 1
    for executable in args.executable:
        result = results[executable]
        stats_path = os.path.join(args.output_dir,
                                  _stats_filename(executable, multiple))
        with open(stats_path, "w") as handle:
            handle.write(format_stats(result))
        print(f"{result.workload}: {result.retired} instructions, "
              f"{result.cycles} cycles (IPC {result.ipc:.2f}) "
              f"under {result.config}")
        print(f"stats written to {stats_path}")
        if args.track_insts:
            _print_track_insts(result.metrics)
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`): exit quietly with
        # the conventional SIGPIPE status instead of a traceback.
        import os as _os
        _os.dup2(_os.open(_os.devnull, _os.O_WRONLY), 1)
        raise SystemExit(141)
