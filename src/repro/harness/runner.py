"""Experiment runner: :func:`simulate` builds and runs a core for a Table 2
configuration; :func:`run_one` does it for a registered workload.
:func:`simulate_pair` runs two twin programs, such as one fuzz plan
rendered with two secrets, as one paired run where it can, and
:func:`simulate_group` runs one program under several configurations as
one core run per class of agreeing engines."""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.attack_model import AttackModel
from repro.harness.configs import make_engine
from repro.isa.instructions import Program
from repro.obs.metrics import Metrics
from repro.pipeline.core import OoOCore, SimResult
from repro.pipeline.group import EngineGroup
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
    if require_halt:
        _require_halt(sim, program, config, model, max_instructions)
    return sim


def _require_halt(sim: SimResult, program: Program, config: str,
                  model: AttackModel, max_instructions: int) -> None:
    if not sim.halted:
        raise RuntimeError(
            f"{program.name} did not halt under {config}/{model.value} "
            f"within {max_instructions} instructions")


# Why a pair ran as two separate simulations without a paired attempt.
NOT_TWINS = "not-twins"
SANITIZER = "sanitizer"
# The paired run raised something other than a Divergence.
PAIRED_ERROR = "error"


@dataclass
class PairRun:
    """Both results of one :func:`simulate_pair` and how they were made.

    ``fallback`` is None when one paired run served both programs.  Else
    it says why they ran separately: a steering site of
    :mod:`repro.pipeline.relational` (the paired run diverged there),
    :data:`NOT_TWINS`, :data:`SANITIZER` or :data:`PAIRED_ERROR`, with
    the exception the paired run raised in ``error``.
    """

    results: tuple          # (SimResult, SimResult)
    fallback: Optional[str] = None
    error: str = ""


def simulations_made(fallback: Optional[str]) -> int:
    """Core runs behind a :class:`PairRun` with ``fallback``: the paired
    run, plus the two separate runs after it diverged or raised."""
    if fallback is None:
        return 1
    return 2 if fallback in (NOT_TWINS, SANITIZER) else 3


def simulate_pair(program_a: Program, program_b: Program, config: str,
                  model: AttackModel, max_instructions: int,
                  params: Optional[MachineParams] = None,
                  setup: Optional[Callable[[OoOCore], None]] = None,
                  require_halt: bool = False) -> PairRun:
    """:func:`simulate` both programs; each result equals its own run's.

    Twin programs run as one :class:`~repro.pipeline.relational.
    PairedCore`.  The two programs run separately, exactly as
    :func:`simulate` runs them, when they are not twins, when a sanitizer
    is attached (``params.check_level``), when the paired run reaches a
    steering site with differing values, and when it raises.
    """
    # Imported here: the processes that never pair (figure sweeps, the
    # scenario matrix) skip loading the relational core.
    from repro.pipeline.relational import Divergence, PairedCore, twins

    fallback = None
    error = ""
    if (params or MachineParams()).check_level != "off":
        fallback = SANITIZER
    elif not twins(program_a, program_b):
        fallback = NOT_TWINS
    else:
        core = PairedCore(program_a, program_b,
                          engine=make_engine(config, model), params=params)
        if setup is not None:
            setup(core)
        try:
            sim = core.run(max_instructions=max_instructions)
        except Divergence as divergence:
            fallback = divergence.site
        except Exception:       # noqa: BLE001 — the separate runs decide
            fallback = PAIRED_ERROR
            error = traceback.format_exc()
        else:
            if require_halt:
                _require_halt(sim, program_a, config, model,
                              max_instructions)
            return PairRun((sim, core.twin_result))
    return PairRun(tuple(simulate(program, config, model, max_instructions,
                                  params, setup, require_halt)
                         for program in (program_a, program_b)), fallback,
                   error)


@dataclass
class GroupRun:
    """What one :func:`simulate_group` made.

    ``results`` follows the ``configs`` order: each configuration's
    ``SimResult``, or the exception its own :func:`simulate` raises.
    ``runs`` counts core runs; ``departures`` lists ``(config, query,
    cycle)`` for each member that left a group, and ``error`` is the
    traceback of a group run that raised (its members then ran
    separately).
    """

    results: list
    runs: int = 0
    departures: list = field(default_factory=list)
    error: str = ""


def simulate_group(program: Program, configs, model: AttackModel,
                   max_instructions: int,
                   params: Optional[MachineParams] = None,
                   setup: Optional[Callable[[OoOCore], None]] = None,
                   require_halt: bool = False) -> GroupRun:
    """:func:`simulate` ``program`` under each of ``configs`` (distinct
    configurations that advance the visibility point); each result equals
    its own run's.

    The configurations run as one core with an
    :class:`~repro.pipeline.group.EngineGroup`; the members that left it
    run again as the next group, in ``configs`` order, until every
    configuration has its result.  A group run that raises falls back to
    a separate :func:`simulate` per member, each keeping its own result or
    exception.
    """
    configs = list(configs)
    done: dict = {}
    run = GroupRun([])
    pending = configs
    while pending:
        engines = [make_engine(config, model) for config in pending]
        # The last configuration left runs alone: its run is its own.
        group = EngineGroup(engines) if len(engines) > 1 else None
        core = OoOCore(program, engine=group or engines[0], params=params)
        if setup is not None:
            setup(core)
        run.runs += 1
        try:
            sim = core.run(max_instructions=max_instructions)
        except Exception as exc:    # noqa: BLE001 — the separate runs decide
            if group is None:
                done[pending[0]] = exc
                break
            run.error = traceback.format_exc()
            for config in pending:
                run.runs += 1
                try:
                    done[config] = simulate(program, config, model,
                                            max_instructions, params, setup,
                                            require_halt)
                except Exception as exc:    # noqa: BLE001 — its outcome
                    done[config] = exc
            break
        config_of = {id(engine): config
                     for config, engine in zip(pending, engines)}
        for engine in (group.members if group else engines):
            config = config_of[id(engine)]
            result = (sim if engine is engines[0]
                      else SimResult(core, sim.halted, engine))
            if require_halt:
                try:
                    _require_halt(result, program, config, model,
                                  max_instructions)
                except RuntimeError as exc:
                    result = exc
            done[config] = result
        if group is not None:
            run.departures += [(config_of[id(engine)], query, cycle)
                               for engine, query, cycle in group.departures]
        pending = [config for config in pending if config not in done]
    run.results = [done[config] for config in configs]
    return run


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
    return run_result(workload, config, model, sim, collect_trace)


def run_twins(workload_a: str, workload_b: str, config: str,
              model: AttackModel = AttackModel.FUTURISTIC, scale: int = 1,
              max_instructions: Optional[int] = None,
              params: Optional[MachineParams] = None,
              collect_trace: bool = False) -> tuple:
    """:func:`run_one` for two workloads through :func:`simulate_pair`:
    ``(RunResult, RunResult, PairRun.fallback)``."""
    run = simulate_pair(get_workload(workload_a).program(scale),
                        get_workload(workload_b).program(scale), config,
                        model, max_instructions or 10_000_000, params,
                        require_halt=collect_trace)
    sim_a, sim_b = run.results
    result_a = run_result(workload_a, config, model, sim_a, collect_trace)
    if run.fallback is None:
        # One paired run: both sides saw the same events and cycle count.
        result_b = RunResult(workload_b, config, model, sim_b.cycles,
                             sim_b.retired, sim_b.metrics,
                             dict(result_a.trace_digests))
    else:
        result_b = run_result(workload_b, config, model, sim_b,
                              collect_trace)
    return result_a, result_b, run.fallback


def run_group(workload: str, configs, model: AttackModel, scale: int = 1,
              max_instructions: Optional[int] = None,
              params: Optional[MachineParams] = None,
              collect_trace: bool = False) -> tuple:
    """:func:`run_one` for several configurations through
    :func:`simulate_group`: ``(outcomes, core runs)``, with one
    ``RunResult``, or the exception its own run raises, per
    configuration."""
    run = simulate_group(get_workload(workload).program(scale), configs,
                         model, max_instructions or 10_000_000, params,
                         require_halt=collect_trace)
    outcomes = [sim if isinstance(sim, Exception)
                else run_result(workload, config, model, sim, collect_trace)
                for config, sim in zip(configs, run.results)]
    return outcomes, run.runs


def run_result(workload: str, config: str, model: AttackModel,
               sim: SimResult, collect_trace: bool) -> RunResult:
    """The :class:`RunResult` of one simulation of ``workload``."""
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
