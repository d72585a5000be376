"""Experiment runner: :func:`simulate_group` is the one place that builds
and runs a core for configuration names.  It runs one program, and a twin
(one fuzz plan rendered with two secrets) when one is given, under any list
of configurations, as one core run per class of agreeing engines.  Each
single-configuration entry point is one of its cases: :func:`simulate`,
:func:`simulate_pair` (with a twin), and for registered workloads
:func:`run_group` and its one-configuration case :func:`run_one`, which
raise a configuration's own exception; a sweep cell raises it as a
``RunFailure`` (:mod:`repro.harness.parallel`)."""

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
    """Run ``program`` on a core with ``config``'s engine:
    :func:`simulate_group`'s one-configuration case.  ``setup`` sees the
    core before the run (e.g. an attacker planting a BTB entry);
    ``require_halt`` makes a run cut at ``max_instructions`` raise
    ``RuntimeError``, since its trace would describe a truncated run."""
    return _sole(simulate_group(program, [config], model, max_instructions,
                                params, setup, require_halt)).results[0]


def _sole(run: GroupRun) -> GroupRun:
    """The run of one configuration; raises what that run raised."""
    result, = run.results
    if isinstance(result, Exception):
        raise result
    return run


def _require_halt(sim: SimResult, program: Program, config: str,
                  model: AttackModel, max_instructions: int) -> None:
    if not sim.halted:
        raise RuntimeError(
            f"{program.name} did not halt under {config}/{model.value} "
            f"within {max_instructions} instructions")


# Why a twin pair ran as two separate simulations without a paired attempt.
NOT_TWINS = "not-twins"
SANITIZER = "sanitizer"
# The paired run raised something other than a Divergence, or the
# configuration's engine could not be built.
PAIRED_ERROR = "error"


def simulate_pair(program_a: Program, program_b: Program, config: str,
                  model: AttackModel, max_instructions: int,
                  params: Optional[MachineParams] = None,
                  setup: Optional[Callable[[OoOCore], None]] = None,
                  require_halt: bool = False) -> GroupRun:
    """:func:`simulate` both programs, each result equal to its own run's:
    :func:`simulate_group`'s one-configuration twin case, whose
    ``results[0]`` is the pair of results and ``fallbacks[0]`` how they
    were made.  Raises what the separate runs raise."""
    return _sole(simulate_group(program_a, [config], model, max_instructions,
                                params, setup, require_halt,
                                twin=program_b))


@dataclass
class GroupRun:
    """What one :func:`simulate_group` made.

    ``results`` follows the ``configs`` order: each configuration's
    ``SimResult`` (a ``RunResult`` from :func:`run_group`; with a twin
    program, its pair of them), or the exception its own run raises.  With
    a twin, ``fallbacks`` follows that order too: None where one paired run
    served both programs, else why they ran separately: a steering site of
    :mod:`repro.pipeline.relational` (a paired run diverged there),
    :data:`NOT_TWINS`, :data:`SANITIZER` or :data:`PAIRED_ERROR`.
    ``runs`` counts core runs; ``departures`` lists
    ``(config, query, cycle)`` for each member that left a group, and
    ``error`` is the traceback of the first group or paired run that
    raised.
    """

    results: list
    fallbacks: list = field(default_factory=list)
    runs: int = 0
    departures: list = field(default_factory=list)
    error: str = ""


def simulate_group(program: Program, configs, model: AttackModel,
                   max_instructions: int,
                   params: Optional[MachineParams] = None,
                   setup: Optional[Callable[[OoOCore], None]] = None,
                   require_halt: bool = False,
                   twin: Optional[Program] = None) -> GroupRun:
    """Run ``program``, and its ``twin`` when one is given, under each of
    ``configs``; each result equals that configuration's run on a core of
    its own.

    One rule decides which configurations share a core.  Each core carries
    the first configuration still pending and, unless a sanitizer is
    attached, every other pending configuration whose engine advances the
    same visibility point (``engine.vp_predicate``).  So UnsafeBaseline,
    which advances none, and each sanitized run get a core of their own.
    Several configurations run as one core with an
    :class:`~repro.pipeline.group.EngineGroup` (a
    :class:`~repro.pipeline.relational.PairedCore` with a twin); the
    members that left it are pending again, in ``configs`` order.  A
    configuration whose engine cannot be built gets that exception as its
    result.  A paired run that reaches a steering site with differing
    values diverges there for every member still in it, so those members
    run each side separately, as a group per side.  Twins also run
    separately under a sanitizer and when they are not twins.  A group run
    that raises falls back to each member's own run, which keeps its own
    result or exception; a lone paired run that raises, to its separate
    runs.
    """
    configs = list(configs)
    checked = (params or MachineParams()).check_level != "off"
    run = GroupRun([])
    done: dict = {}
    fallback: dict = {}

    def separately(members: list, reason: str) -> None:
        """Run each side of ``members`` as a group of its own."""
        sides = [simulate_group(side, members, model, max_instructions,
                                params, setup, require_halt)
                 for side in (program, twin)]
        for side_run in sides:
            run.runs += side_run.runs
            run.departures += side_run.departures
            run.error = run.error or side_run.error
        for config, a, b in zip(members, *(s.results for s in sides)):
            done[config] = (a if isinstance(a, Exception)
                            else b if isinstance(b, Exception) else (a, b))
            fallback[config] = reason

    paired = twin is not None
    if paired:
        # Imported here: the processes that never pair (figure sweeps, the
        # scenario matrix) skip loading the relational core.
        from repro.pipeline.relational import Divergence, PairedCore, twins
        if checked:
            separately(configs, SANITIZER)
        elif not twins(program, twin):
            separately(configs, NOT_TWINS)
    while True:
        built: dict = {}        # each pending configuration's engine
        for config in dict.fromkeys(configs):
            if config not in done:
                try:
                    built[config] = make_engine(config, model)
                except Exception as exc:    # noqa: BLE001 — its outcome
                    done[config] = exc
                    fallback[config] = PAIRED_ERROR
        if not built:
            break
        # The rule: the first configuration pending leads, and the others
        # whose engines advance its visibility point join it; none joins
        # a sanitized run, since a sanitizer checks one engine.
        lead, *others = built
        vp = None if checked else built[lead].vp_predicate
        members = [lead] + [config for config in others if vp is not None
                            and built[config].vp_predicate is vp]
        engines = [built[config] for config in members]
        # A lone configuration's run is its own.
        group = EngineGroup(engines) if len(engines) > 1 else None
        core = (PairedCore(program, twin, group or engines[0], params)
                if paired else OoOCore(program, group or engines[0], params))
        if setup is not None:
            setup(core)
        run.runs += 1
        config_of = {id(engine): config
                     for config, engine in zip(members, engines)}
        try:
            sim = core.run(max_instructions=max_instructions)
        except Exception as exc:    # noqa: BLE001 — the separate runs decide
            if paired and isinstance(exc, Divergence):
                # Each member still in the group would have reached this
                # site in its own paired run: its sides run separately.
                separately([config_of[id(engine)] for engine
                            in (group.members if group else engines)],
                           exc.site)
            elif group is not None:
                run.error = run.error or traceback.format_exc()
                for config in members:
                    own = simulate_group(program, [config], model,
                                         max_instructions, params, setup,
                                         require_halt, twin)
                    run.runs += own.runs
                    done[config] = own.results[0]
                    if paired:
                        fallback[config] = own.fallbacks[0]
            elif paired:
                run.error = run.error or traceback.format_exc()
                separately(members, PAIRED_ERROR)
            else:
                done[members[0]] = exc
        else:
            for engine in (group.members if group else engines):
                config = config_of[id(engine)]
                if engine is engines[0]:
                    result = (sim, core.twin_result) if paired else sim
                else:
                    result = SimResult(core, sim.halted, engine)
                    if paired:
                        result = core.sides(result, engine)
                if paired:
                    fallback[config] = None
                if require_halt:
                    try:
                        _require_halt(sim, program, config, model,
                                      max_instructions)
                    except RuntimeError as exc:
                        result = exc
                done[config] = result
        if group is not None:
            run.departures += [(config_of[id(engine)], query, cycle)
                               for engine, query, cycle in group.departures]
    run.results = [done[config] for config in configs]
    if paired:
        run.fallbacks = [fallback[config] for config in configs]
    return run


def run_one(workload: str, config: str,
            model: AttackModel = AttackModel.FUTURISTIC,
            scale: int = 1, max_instructions: Optional[int] = None,
            params: Optional[MachineParams] = None,
            collect_trace: bool = False) -> RunResult:
    """Simulate ``workload`` under ``config`` and collect statistics:
    :func:`run_group`'s one-configuration case.

    ``collect_trace=True`` additionally hashes the attacker-visible trace
    per channel into ``RunResult.trace_digests`` (the non-interference
    oracle's comparison unit; cheap and cacheable, unlike the trace).
    """
    return _sole(run_group(workload, [config], model, scale,
                           max_instructions, params,
                           collect_trace)).results[0]


def run_group(workload: str, configs, model: AttackModel, scale: int = 1,
              max_instructions: Optional[int] = None,
              params: Optional[MachineParams] = None,
              collect_trace: bool = False,
              twin: Optional[str] = None) -> GroupRun:
    """Simulate ``workload`` under each of ``configs`` through
    :func:`simulate_group`, with the ``twin`` workload beside each when one
    is given, and collect statistics: the :class:`GroupRun`, each of whose
    ``SimResult``s is made a :class:`RunResult` of its workload.  Results
    of one core run share its observer, whose trace is hashed once."""
    run = simulate_group(get_workload(workload).program(scale), configs,
                         model, max_instructions or 10_000_000, params,
                         require_halt=collect_trace,
                         twin=twin and get_workload(twin).program(scale))
    digests: dict = {}

    def result(name: str, config: str, sim: SimResult) -> RunResult:
        key = id(sim.observer)
        if collect_trace and key not in digests:
            digests[key] = channel_digests(sim.observer, sim.cycles)
        return RunResult(name, config, model, sim.cycles, sim.retired,
                         sim.metrics, dict(digests.get(key, {})))

    run.results = [
        sim if isinstance(sim, Exception)
        else result(workload, config, sim) if twin is None
        else (result(workload, config, sim[0]), result(twin, config, sim[1]))
        for config, sim in zip(configs, run.results)]
    return run


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
