"""Performance-trajectory snapshots: ``repro bench record`` / ``compare``.

A snapshot (``BENCH_<date>.json``) freezes everything CI needs to detect a
performance regression in one schema-versioned JSON file:

* **Simulator throughput** — wall-clock and retired instructions/second of
  an uncached simulation as every figure runs it, the batched path (best
  of several repetitions, which absorbs scheduler noise on shared CI
  runners).
* **Headline Figure-7 overheads** — the Section 9.2 numbers from a full
  (workload, configuration, model) sweep at the snapshot budget.  These
  are *model outputs*, not timings: the simulation is deterministic
  integer arithmetic, so they must match a committed baseline to within
  float-printing noise, and any drift means the modelled microarchitecture
  changed.
* **Stall-cause breakdown** — the fraction of cycles per
  :class:`~repro.obs.stall.StallCause` for the protected cell (mcf under
  full SPT, FUTURISTIC model): the shape of *where the overhead goes*.

``compare`` diffs two snapshots under configurable tolerances and returns
non-zero on regression; the CI ``perf-regression`` job gates on it against
``benchmarks/baselines/BENCH_baseline.json``.

A snapshot may also carry an ``end_to_end`` section: the medians of the
repo benchmark's end-to-end metrics (``perfbench/run.py --trace 0``, one
stdout log per run, read by ``record --perfbench``), with the vCPU count
and Python version of the host.  ``show`` renders it; ``compare`` ignores
it, since host wall times from two recordings compare only within one set
of alternating runs, not across snapshots.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import time
from typing import Optional

from repro.core.attack_model import AttackModel
from repro.experiments import figure7
from repro.harness.configs import FIGURE7_ORDER, FULL_SPT
from repro.harness.runner import bench_budget, bench_scale, run_one
from repro.obs.stall import stall_breakdown

# v2: per-backend protected throughput cells + vector speedup + a second
# stall shape recorded under the vector backend.
# v3: one machine — the per-backend cells and the second stall shape are
# gone; ``throughput`` and ``stall`` describe the batched path.
SCHEMA_VERSION = 3

# The cell for throughput and the stall-shape snapshot: mcf is the paper's
# canonical memory-bound victim and the workload where SPT's overhead
# mechanisms (delayed loads, broadcast pressure) bite hardest.  The stall
# cell is also the one ``bench profile`` profiles.
THROUGHPUT_WORKLOAD = "mcf"
STALL_WORKLOAD = "mcf"
STALL_CONFIG = FULL_SPT
STALL_MODEL = AttackModel.FUTURISTIC

# The budget of ``BENCH_baseline.json`` and every committed snapshot:
# ``record`` and ``profile`` default to it (``REPRO_BENCH_BUDGET`` and
# ``--budget`` override it), so a plain ``bench record`` compares clean.
SNAPSHOT_BUDGET = 500


def default_snapshot_name(today: Optional[datetime.date] = None,
                          directory: str = ".") -> str:
    """The first of ``BENCH_<date>.json``, ``BENCH_<date>b.json``, ...,
    ``BENCH_<date>z.json`` that names no file in ``directory``, so that a
    second recording on one day keeps the first."""
    stem = f"BENCH_{(today or datetime.date.today()).strftime('%Y%m%d')}"
    for suffix in ("", *"bcdefghijklmnopqrstuvwxyz"):
        name = f"{stem}{suffix}.json"
        if not os.path.exists(os.path.join(directory, name)):
            return name
    raise FileExistsError(f"{directory}: every {stem}[b-z].json exists")


def _throughput_probe(budget: int, scale: int, reps: int) -> dict:
    """Best-of-``reps`` uncached simulation speed (instructions/second)."""
    best = None
    instructions = 0
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        result = run_one(THROUGHPUT_WORKLOAD, "UnsafeBaseline",
                         model=AttackModel.FUTURISTIC, scale=scale,
                         max_instructions=budget)
        elapsed = time.perf_counter() - start
        instructions = result.retired
        if best is None or elapsed < best:
            best = elapsed
    return {
        "workload": THROUGHPUT_WORKLOAD,
        "reps": max(1, reps),
        "instructions": instructions,
        "best_wall_seconds": best,
        "instr_per_sec": instructions / best if best else 0.0,
    }


def profile_cell(path: str, budget: Optional[int] = None,
                 scale: Optional[int] = None, runs: int = 3,
                 top: int = 25) -> str:
    """cProfile the protected bench cell, dump pstats to ``path``, return a
    summary.

    CI uploads the dump as the ``profile-artifact`` whenever the
    perf-regression gate goes red, so the profile that explains a
    throughput drop ships with the failing run instead of requiring a
    local reproduction.
    """
    import cProfile
    import io
    import pstats

    budget = budget or bench_budget(SNAPSHOT_BUDGET)
    scale = scale or bench_scale()
    # One warm-up run keeps import/first-touch costs out of the profile.
    run_one(STALL_WORKLOAD, STALL_CONFIG, model=STALL_MODEL,
            scale=scale, max_instructions=budget)
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(max(1, runs)):
        run_one(STALL_WORKLOAD, STALL_CONFIG, model=STALL_MODEL,
                scale=scale, max_instructions=budget)
    profiler.disable()
    profiler.dump_stats(path)
    out = io.StringIO()
    out.write(f"cProfile of {STALL_WORKLOAD}/{STALL_CONFIG} "
              f"({STALL_MODEL.value}), budget={budget}, "
              f"runs={max(1, runs)}\n")
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)
    return out.getvalue()


def _stall_shape(budget: int, scale: int) -> dict:
    """Per-cause cycle fractions for the protected cell."""
    result = run_one(STALL_WORKLOAD, STALL_CONFIG, model=STALL_MODEL,
                     scale=scale, max_instructions=budget)
    cycles = stall_breakdown(result.metrics)
    total = max(1, sum(cycles.values()))
    return {
        "workload": STALL_WORKLOAD,
        "config": STALL_CONFIG,
        "model": STALL_MODEL.value,
        "total_cycles": sum(cycles.values()),
        "cycles": cycles,
        "fractions": {cause: count / total for cause, count in cycles.items()},
    }


def record_snapshot(budget: Optional[int] = None,
                    scale: Optional[int] = None,
                    jobs: Optional[int] = None,
                    use_cache: Optional[bool] = None,
                    reps: int = 3,
                    workloads: Optional[list] = None) -> dict:
    """Measure everything and return the snapshot dict (not yet written).

    ``workloads`` restricts the overhead sweep (tests use a small subset);
    snapshots record their workload set and ``compare`` refuses to diff
    snapshots whose sets differ.
    """
    budget = budget or bench_budget(SNAPSHOT_BUDGET)
    scale = scale or bench_scale()
    data = figure7.collect(workloads=workloads, scale=scale, budget=budget,
                           jobs=jobs, use_cache=use_cache)
    return {
        "schema_version": SCHEMA_VERSION,
        "recorded_at": datetime.datetime.now().isoformat(timespec="seconds"),
        "budget": budget,
        "scale": scale,
        "workloads": list(data.workloads),
        "configs": ["UnsafeBaseline"] + list(FIGURE7_ORDER),
        "throughput": _throughput_probe(budget, scale, reps),
        "overheads": figure7.headline(data),
        "stall": _stall_shape(budget, scale),
    }


def read_perfbench_log(path: str) -> dict:
    """One ``perfbench/run.py`` run from its standard output: the workload
    and seed from the first line, the result object from the last.

    Raises ``ValueError`` for a log that is not an untraced run's output
    (a traced run's metrics are per layer, not end to end).
    """
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty perfbench log")
    header = dict(field.split("=", 1) for field in lines[0].split()
                  if "=" in field)
    if "workload" not in header:
        raise ValueError(f"{path}: the first line names no workload: "
                         f"{lines[0]!r}")
    if header.get("trace", "0") != "0":
        raise ValueError(f"{path}: a traced run (trace={header['trace']}) "
                         f"has no end-to-end metrics")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or \
            not isinstance(result.get("metrics"), dict):
        raise ValueError(f"{path}: the last line is not a perfbench result "
                         f"object: {lines[-1][:80]!r}")
    return {"workload": header["workload"],
            "seed": int(header.get("seed", 0)), "result": result}


def end_to_end_section(paths: list) -> dict:
    """The ``end_to_end`` snapshot section from perfbench logs: per
    workload, each metric's median over its runs, the runs' seeds and op
    counts, and the host this runs on (record on the host that ran them).
    """
    runs: dict = {}
    for path in paths:
        run = read_perfbench_log(path)
        runs.setdefault(run["workload"], []).append(run)
    workloads = {}
    for workload, group in sorted(runs.items()):
        results = [run["result"] for run in group]
        names = results[0]["metrics"]
        if any(set(result["metrics"]) != set(names) for result in results):
            raise ValueError(f"{workload}: the logs report different "
                             f"metrics")
        workloads[workload] = {
            "runs": len(group),
            "seeds": sorted({run["seed"] for run in group}),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": {name: {"value": statistics.median(
                                   result["metrics"][name]["value"]
                                   for result in results),
                               "unit": names[name]["unit"]}
                        for name in names},
        }
    return {"host": {"vcpus": os.cpu_count(),
                     "python": platform.python_version()},
            "workloads": workloads}


def write_snapshot(snapshot: dict, path: str) -> str:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_snapshot(path: str) -> dict:
    with open(path) as handle:
        snapshot = json.load(handle)
    version = snapshot.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: snapshot schema {version!r} is not the supported "
            f"schema {SCHEMA_VERSION} (re-record the baseline)")
    return snapshot


def compare_snapshots(baseline: dict, current: dict,
                      throughput_tolerance: float = 0.30,
                      overhead_tolerance: float = 1e-6,
                      stall_tolerance: float = 1e-6) -> list:
    """Diff two snapshots; returns the list of regression descriptions.

    * Throughput is a one-sided check: ``current`` may be up to
      ``throughput_tolerance`` (a fraction) slower than ``baseline``;
      being faster never fails.
    * Overheads and stall fractions are two-sided (absolute difference):
      the simulation is deterministic, so with the default near-zero
      tolerances any drift flags a modelling change that must be
      acknowledged by re-recording the baseline.
    """
    failures: list = []
    if baseline.get("budget") != current.get("budget"):
        # A budget mismatch would otherwise surface as a wall of
        # deterministic overhead/stall diffs; name the knob instead.
        failures.append(
            f"incomparable snapshots: baseline was recorded at budget "
            f"{baseline.get('budget')!r} but current at "
            f"{current.get('budget')!r} — record both under the same "
            f"REPRO_BENCH_BUDGET (or pass the same --budget)")
    for field in ("scale", "workloads"):
        if baseline.get(field) != current.get(field):
            failures.append(
                f"incomparable snapshots: {field} differs "
                f"({baseline.get(field)!r} vs {current.get(field)!r})")
    if failures:
        return failures

    base_tp = baseline["throughput"]["instr_per_sec"]
    cur_tp = current["throughput"]["instr_per_sec"]
    floor = base_tp * (1.0 - throughput_tolerance)
    if cur_tp < floor:
        failures.append(
            f"throughput regression: {cur_tp:,.0f} instr/s is below "
            f"{floor:,.0f} (baseline {base_tp:,.0f} "
            f"- {throughput_tolerance:.0%} tolerance)")

    base_over = baseline["overheads"]
    cur_over = current["overheads"]
    for key in sorted(set(base_over) | set(cur_over)):
        old = base_over.get(key)
        new = cur_over.get(key)
        if old is None or new is None:
            failures.append(f"overhead {key}: present in only one snapshot")
            continue
        if abs(new - old) > overhead_tolerance:
            failures.append(
                f"overhead shape changed: {key} {old:.6f} -> {new:.6f} "
                f"(tolerance {overhead_tolerance})")

    base_frac = baseline["stall"]["fractions"]
    cur_frac = current["stall"]["fractions"]
    for cause in sorted(set(base_frac) | set(cur_frac)):
        old = base_frac.get(cause, 0.0)
        new = cur_frac.get(cause, 0.0)
        if abs(new - old) > stall_tolerance:
            failures.append(
                f"stall shape changed: {cause} {old:.6f} -> {new:.6f} "
                f"of cycles (tolerance {stall_tolerance})")
    return failures


def render_snapshot(snapshot: dict) -> str:
    """Human-readable one-screen summary of a snapshot."""
    tp = snapshot["throughput"]
    lines = [
        f"bench snapshot (schema {snapshot['schema_version']}, "
        f"recorded {snapshot['recorded_at']})",
        f"  budget {snapshot['budget']} instructions, "
        f"scale {snapshot['scale']}, {len(snapshot['workloads'])} workloads",
        f"  throughput: {tp['instr_per_sec']:,.0f} instr/s "
        f"({tp['workload']}, best of {tp['reps']})",
    ]
    lines.append("  overheads:")
    for key, value in sorted(snapshot["overheads"].items()):
        lines.append(f"    {key:38s} = {value:8.4f}")
    stall = snapshot["stall"]
    lines.append(f"  stall breakdown ({stall['workload']} under "
                 f"{stall['config']}, {stall['model']}):")
    for cause, fraction in sorted(stall["fractions"].items(),
                                  key=lambda item: -item[1]):
        if fraction > 0:
            lines.append(f"    {cause:28s} {fraction:7.2%}")
    section = snapshot.get("end_to_end")
    if section:
        host = section["host"]
        lines.append(f"  end to end (perfbench medians, {host['vcpus']} "
                     f"vCPUs, Python {host['python']}):")
        for workload, entry in sorted(section["workloads"].items()):
            values = ", ".join(f"{name} {metric['value']:.4g} "
                               f"{metric['unit']}"
                               for name, metric in entry["metrics"].items())
            seeds = ",".join(str(seed) for seed in entry["seeds"])
            lines.append(f"    {workload:18s} {values} ({entry['runs']} "
                         f"runs, seeds {seeds}, {entry['failed']} of "
                         f"{entry['attempted']} ops failed)")
    return "\n".join(lines)
