"""Experiment runner: one (workload, configuration, attack model) simulation."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.core.attack_model import AttackModel
from repro.core.spt import SPTEngine
from repro.harness.configs import make_engine
from repro.pipeline.core import OoOCore, SimResult
from repro.pipeline.params import MachineParams
from repro.security.observer import channel_digests
from repro.workloads.registry import get as get_workload


def _env_int(name: str, default: int, minimum: int = 1) -> int:
    """Read a positive integer from the environment with a clear error."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def bench_budget(default: int = 2500) -> int:
    """Per-run retired-instruction budget (env: REPRO_BENCH_BUDGET)."""
    return _env_int("REPRO_BENCH_BUDGET", default)


def bench_scale(default: int = 1) -> int:
    """Workload scale factor (env: REPRO_BENCH_SCALE)."""
    return _env_int("REPRO_BENCH_SCALE", default)


@dataclass
class RunResult:
    """Everything the experiment modules need from one simulation."""

    workload: str
    config: str
    model: AttackModel
    cycles: int
    retired: int
    stats: dict
    # Hierarchical metrics in Metrics.as_dict() form (JSON-safe: dist
    # buckets stringified); rebuild with Metrics.from_dict for rendering.
    metrics: dict = field(default_factory=dict)
    untaint_by_kind: dict = field(default_factory=dict)
    untaints_per_cycle: dict = field(default_factory=dict)
    sim: Optional[SimResult] = None
    # Per-channel hashes of the attacker-visible trace (see
    # repro.security.observer.channel_digests); filled when the run was
    # requested with collect_trace=True.
    trace_digests: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0


def run_one(workload: str, config: str,
            model: AttackModel = AttackModel.FUTURISTIC,
            scale: int = 1, max_instructions: Optional[int] = None,
            params: Optional[MachineParams] = None,
            keep_sim: bool = False, collect_trace: bool = False) -> RunResult:
    """Simulate ``workload`` under ``config`` and collect statistics.

    ``collect_trace=True`` additionally hashes the attacker-visible trace
    per channel into ``RunResult.trace_digests`` (the non-interference
    oracle's comparison unit; cheap and cacheable, unlike the trace).
    """
    program = get_workload(workload).program(scale)
    engine = make_engine(config, model)
    core = OoOCore(program, engine=engine, params=params or MachineParams())
    sim = core.run(max_instructions=max_instructions or 10_000_000)
    untaint_by_kind: dict = {}
    untaints_per_cycle: dict = {}
    if isinstance(engine, SPTEngine):
        untaint_by_kind = engine.untaint.as_dict()
        untaints_per_cycle = dict(engine.untaint.untaints_per_cycle)
    trace_digests: dict = {}
    if collect_trace:
        if not sim.halted:
            raise RuntimeError(
                f"{workload} did not halt under {config}; its trace digests "
                f"would describe a truncated run")
        trace_digests = channel_digests(sim.observer, sim.cycles)
    return RunResult(workload, config, model, sim.cycles, sim.retired,
                     sim.stats, metrics=sim.metrics.as_dict(),
                     untaint_by_kind=untaint_by_kind,
                     untaints_per_cycle=untaints_per_cycle,
                     sim=sim if keep_sim else None,
                     trace_digests=trace_digests)


def normalized_time(result: RunResult, baseline: RunResult) -> float:
    """Execution time relative to a baseline run of the same workload.

    Both runs retire the same instruction stream prefix (same program, same
    budget), so cycles are directly comparable; we still normalise per
    retired instruction defensively in case a budget cut the runs at
    slightly different points.
    """
    if baseline.retired == result.retired:
        return result.cycles / baseline.cycles
    return (result.cycles / max(1, result.retired)) / \
        (baseline.cycles / max(1, baseline.retired))
