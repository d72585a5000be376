"""The repo benchmark: cold end-to-end runs of three workloads, checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig7-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:
``wall_s`` (median host seconds of one timed pass), ``setup_s`` (median of
the run's cold set-ups, each timed from spawning a set-up-only process to
its exit: interpreter start, the workload's imports and, for
``fig7-grid``, the registry program builds) and ``peak_rss_mb`` (median
peak resident memory of a pass's own process).  Passes repeat while the
next one is expected to end within ``--seconds``; at least one runs.
Set-ups run before the first pass, between passes and after the last, so
their median samples the host across the whole run.

``--trace 1`` runs one traced pass and prints every per-layer metric:
self time and counts per layer (see ``layers.py``).

``--steady N`` makes N runs on seeds ``seed .. seed+N-1`` and prints each
metric's median and quartiles, flagging any spread above its bound.

Every process is a fresh interpreter (``worker.py``) with the result cache
off and ``jobs=1``.  Failed ops (simulations, matrix cells and verify
checks, plus each named output check; a crashed pass counts as one)
against attempted ops are printed as ``fail_frac`` with its base, and in
the result line as ``failed`` and ``attempted``.  The last line of
standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from cases import Outcome  # noqa: E402
from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("fig7-grid", "security-verdicts", "verify-targets")
# Cold set-ups per run: SETUP_EDGE before the first pass and after the
# last, SETUP_BETWEEN between two passes.  A slow phase of the host during
# one part of the run then moves their median less.
SETUP_EDGE = 6
SETUP_BETWEEN = 2
# A pass takes under 60 s even on a slow host; a run must end within 180 s.
CHILD_TIMEOUT_S = 120
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class ProgramMissing(Exception):
    """The program under test cannot be imported from this checkout."""


def child_env() -> dict:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""),
                PYTHONHASHSEED="0", REPRO_NO_CACHE="1", REPRO_JOBS="1",
                REPRO_CACHE_DIR=os.path.join(OUT, "cache"))


def spawn(workload: str, mode: str, seed: int, small: bool, *extra):
    """Run one worker; returns (seconds from spawn to exit, report or None)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--mode", mode,
           "--seed", str(seed), *extra]
    if small:
        cmd.append("--small")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} {mode}: killed after {CHILD_TIMEOUT_S}s",
              file=sys.stderr)
        return time.perf_counter() - start, None
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return seconds, None
    return seconds, json.loads(lines[-1])


def preflight(workload: str, seed: int, small: bool) -> None:
    """One untimed set-up: compiles bytecode and proves the program imports."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise ProgramMissing(f"no program at {os.path.join(ROOT, 'src', 'repro')}")
    os.makedirs(OUT, exist_ok=True)
    if spawn(workload, "setup", seed, small)[1] is None:
        raise ProgramMissing(f"{workload}: set-up failed")


def run_pass(workload: str, seed: int, small: bool, tally: Outcome, *extra):
    """One pass; its ops go into ``tally`` and a crash counts as one failed op."""
    _seconds, report = spawn(workload, "pass", seed, small, *extra)
    if report is None:
        tally.check(False, "a pass crashed")
    else:
        tally.merge(report)
    return report


def setup_samples(workload: str, seed: int, small: bool, count: int) -> list:
    return [spawn(workload, "setup", seed, small)[0] for _ in range(count)]


def measure(workload: str, seed: int, seconds: float, small: bool):
    """End-to-end metrics of one run; returns (metrics, tally)."""
    preflight(workload, seed, small)
    edge, between = (1, 1) if small else (SETUP_EDGE, SETUP_BETWEEN)
    setups = setup_samples(workload, seed, small, edge)
    tally, passes, pass_s = Outcome(), [], 0.0
    while True:
        start = time.perf_counter()
        report = run_pass(workload, seed, small, tally)
        pass_s += time.perf_counter() - start
        if report is not None:
            passes.append(report)
        if pass_s + pass_s / (len(passes) or 1) > seconds:
            break
        setups += setup_samples(workload, seed, small, between)
    setups += setup_samples(workload, seed, small, edge)
    if not passes:
        return None, tally
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    print(f"{workload} seed={seed}: {len(passes)} pass(es) "
          f"{[round(p['wall_s'], 3) for p in passes]} s, "
          f"{len(setups)} set-ups median {metrics['setup_s']:.4f} s")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END}, tally


def measure_trace(workload: str, seed: int, small: bool):
    """Per-layer metrics from one traced pass."""
    preflight(workload, seed, small)
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    tally = Outcome()
    traced = run_pass(workload, seed, small, tally, "--trace", "--spans", spans)
    if traced is None:
        return None, tally
    values = traced["per_layer"]
    print(f"{workload} seed={seed}: traced {traced['traced_wall_s']:.3f} s "
          f"(pass {traced['wall_s']:.3f} s); spans in {spans}")
    print(f"  {'layer metric':32s} {'value':>14s}  unit")
    for name, unit in PER_LAYER:
        print(f"  {name:32s} {values[name]:14.6g}  {unit}")
    attributed = sum(traced["self_s"].values())
    print(f"  self times {attributed:.4f} s + unattributed "
          f"{values['trace.unattributed_s']:.4f} s = traced wall "
          f"{traced['traced_wall_s']:.4f} s")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}, tally


def bounds() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def steady(workload: str, seed: int, seconds: float, runs: int,
           small: bool) -> int:
    """Repeat runs on successive seeds; flag spreads above their bound."""
    limits = bounds()
    values: dict = {name: [] for name, _unit in END_TO_END}
    for offset in range(runs):
        metrics, tally = measure(workload, seed + offset, seconds, small)
        if metrics is None or tally.failed:
            print(f"run on seed {seed + offset} failed: {tally.problems[:5]}")
            return 1
        for name in values:
            values[name].append(metrics[name]["value"])
    flagged = 0
    print(f"{workload}: {runs} runs, seeds {seed}..{seed + runs - 1}")
    print(f"  {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        flag = ""
        if spread > limits[name]:
            flag = "  SPREAD ABOVE BOUND"
            flagged += 1
        elif spread > limits[name] / 3:
            flag = "  above a third of the bound"
        print(f"  {name:12s} {median:10.4f} {q1:10.4f} {q3:10.4f} "
              f"{spread:8.4f} {limits[name]:6.3f}{flag}")
    print(json.dumps({"workload": workload, "values": values}))
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced-size workloads (the smoke test)")
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="make N runs and report each metric's spread")
    args = parser.parse_args(argv)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    try:
        if args.steady:
            return steady(args.workload, args.seed, args.seconds, args.steady,
                          args.small)
        if args.trace:
            metrics, tally = measure_trace(args.workload, args.seed, args.small)
        else:
            metrics, tally = measure(args.workload, args.seed, args.seconds,
                                     args.small)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if metrics is None:
        print(f"error: every pass failed: {tally.problems[:5]}", file=sys.stderr)
        return 1
    for problem in tally.problems[:20]:
        print(f"  FAILED: {problem}")
    print(f"fail_frac = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6f}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
