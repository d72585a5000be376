"""Experiment runner: :func:`simulate` builds and runs a core for a Table 2
configuration; :func:`run_one` does it for a registered workload."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.attack_model import AttackModel
from repro.harness.configs import make_engine
from repro.isa.instructions import Program
from repro.obs.metrics import Metrics
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
    """One simulation's outcome.  ``metrics`` is the run's
    :class:`~repro.obs.metrics.Metrics` tree, the same object as
    ``SimResult.metrics`` and the only carrier of its counters."""

    workload: str
    config: str
    model: AttackModel
    cycles: int
    retired: int
    metrics: Metrics
    # Per-channel hashes of the attacker-visible trace (see
    # repro.security.observer.channel_digests); filled when the run was
    # requested with collect_trace=True.
    trace_digests: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0


def simulate(program: Program, config: str, model: AttackModel,
             max_instructions: int,
             params: Optional[MachineParams] = None,
             setup: Optional[Callable[[OoOCore], None]] = None,
             require_halt: bool = False) -> SimResult:
    """Run ``program`` on a core with ``config``'s engine.  ``setup`` sees
    the core before the run (e.g. an attacker planting a BTB entry);
    ``require_halt`` makes a run cut at ``max_instructions`` raise
    ``RuntimeError``, since its trace would describe a truncated run."""
    core = OoOCore(program, engine=make_engine(config, model),
                   params=params)
    if setup is not None:
        setup(core)
    sim = core.run(max_instructions=max_instructions)
    if require_halt and not sim.halted:
        raise RuntimeError(
            f"{program.name} did not halt under {config}/{model.value} "
            f"within {max_instructions} instructions")
    return sim


def run_one(workload: str, config: str,
            model: AttackModel = AttackModel.FUTURISTIC,
            scale: int = 1, max_instructions: Optional[int] = None,
            params: Optional[MachineParams] = None,
            collect_trace: bool = False) -> RunResult:
    """Simulate ``workload`` under ``config`` and collect statistics.

    ``collect_trace=True`` additionally hashes the attacker-visible trace
    per channel into ``RunResult.trace_digests`` (the non-interference
    oracle's comparison unit; cheap and cacheable, unlike the trace).
    """
    sim = simulate(get_workload(workload).program(scale), config, model,
                   max_instructions or 10_000_000, params,
                   require_halt=collect_trace)
    trace_digests = (channel_digests(sim.observer, sim.cycles)
                     if collect_trace else {})
    return RunResult(workload, config, model, sim.cycles, sim.retired,
                     sim.metrics, trace_digests)


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
