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
from repro.core.baselines import SecureBaseline, UnsafeBaseline
from repro.core.shadow_l1 import ShadowMode
from repro.core.spt import SPTEngine
from repro.core.stt import STTEngine
from repro.harness.configs import CONFIGURATIONS
from repro.harness.parallel import RunSpec, run_many
from repro.harness.runner import RunResult
from repro.isa.assembler import assemble
from repro.isa.instructions import Program
from repro.obs.metrics import Metrics
from repro.pipeline.core import OoOCore
from repro.pipeline.engine_api import ProtectionEngine
from repro.pipeline.params import MachineParams
from repro.workloads.registry import WORKLOADS, get as get_workload


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
    parser.add_argument("--max-instructions", type=int, default=1_000_000)
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor")
    parser.add_argument("--untaint-broadcast-width", type=int, default=3)
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache "
                             "(also: REPRO_NO_CACHE=1)")
    parser.add_argument("--jobs", type=int, default=None,
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
    if args.max_instructions < 1:
        return (f"--max-instructions must be at least 1, "
                f"got {args.max_instructions}")
    if args.scale < 1:
        return f"--scale must be at least 1, got {args.scale}"
    writers: dict = {}
    for executable in args.executable:
        name = _stats_filename(executable, len(args.executable) > 1)
        if name in writers:
            return (f"{writers[name]!r} and {executable!r} would both "
                    f"write {name}")
        writers[name] = executable
    return None


def make_engine_from_args(args: argparse.Namespace) -> ProtectionEngine:
    if not args.enable_spt and not args.stt:
        return UnsafeBaseline()
    model = AttackModel(args.threat_model)
    if args.stt:
        return STTEngine(model)
    if args.untaint_method == "none":
        return SecureBaseline(model)
    if args.enable_shadow_mem:
        shadow = ShadowMode.FULL_MEMORY
    elif args.enable_shadow_l1:
        shadow = ShadowMode.L1
    else:
        shadow = ShadowMode.NONE
    return SPTEngine(model,
                     backward=args.untaint_method in ("bwd", "ideal"),
                     shadow=shadow,
                     ideal=args.untaint_method == "ideal")


def config_name_from_args(args: argparse.Namespace) -> Optional[str]:
    """Map the artifact flags onto a Table 2 configuration name.

    Returns None for combinations outside Table 2 (those run directly
    rather than through the cached ``run_many`` path).
    """
    if not args.enable_spt and not args.stt:
        return "UnsafeBaseline"
    if args.stt:
        return "STT"
    if args.untaint_method == "none":
        return "SecureBaseline"
    if args.enable_shadow_mem:
        shadow = "ShadowMem"
    elif args.enable_shadow_l1:
        shadow = "ShadowL1"
    else:
        shadow = "NoShadowL1"
    untaint = {"fwd": "Fwd", "bwd": "Bwd", "ideal": "Ideal"}[
        args.untaint_method]
    name = f"SPT{{{untaint},{shadow}}}"
    return name if name in CONFIGURATIONS else None


def load_program(executable: str, scale: int) -> Program:
    if executable in WORKLOADS:
        return get_workload(executable).program(scale)
    if os.path.exists(executable):
        with open(executable) as handle:
            return assemble(handle.read(),
                            name=os.path.basename(executable))
    raise SystemExit(
        f"error: {executable!r} is neither a registered workload "
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


def _run_direct(args: argparse.Namespace, executable: str,
                params: MachineParams) -> RunResult:
    """The uncached path: .asm files and non-Table-2 flag combinations."""
    program = load_program(executable, args.scale)
    engine = make_engine_from_args(args)
    sim = OoOCore(program, engine=engine, params=params).run(
        max_instructions=args.max_instructions)
    model = (AttackModel(args.threat_model) if args.threat_model
             else AttackModel.FUTURISTIC)
    return RunResult(program.name, engine.name, model, sim.cycles,
                     sim.retired, sim.metrics)


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
    if argv and argv[0] == "backend-diff":
        from repro.check.diff import main as diff_main
        return diff_main(argv[1:])
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
    config_name = config_name_from_args(args)
    use_cache = False if args.no_cache else None

    # Registered workloads under a Table 2 configuration go through the
    # cached parallel harness as one spec list; everything else (.asm
    # files, off-table flag combinations) runs directly.
    sweep: list = []            # (executable, RunSpec)
    direct: list = []           # executable
    for executable in args.executable:
        if config_name is not None and executable in WORKLOADS:
            sweep.append((executable, RunSpec(
                executable, config_name, model, scale=args.scale,
                max_instructions=args.max_instructions, params=params)))
        else:
            load_program(executable, args.scale)    # fail fast on bad input
            direct.append(executable)

    outputs: list = []          # (executable, RunResult)
    if sweep:
        results = run_many([spec for _, spec in sweep], jobs=args.jobs,
                           use_cache=use_cache)
        for (executable, _), result in zip(sweep, results):
            outputs.append((executable, result))
    for executable in direct:
        outputs.append((executable, _run_direct(args, executable, params)))

    os.makedirs(args.output_dir, exist_ok=True)
    multiple = len(args.executable) > 1
    for executable, result in outputs:
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
