"""Grouped runs: one core for the configurations that agree.

:func:`repro.check.diff.group_diff_cell` is the differential: every
configuration's projected outcome from the group runner (cycles, retired
count, halt, retired PCs, architectural registers, every metric path,
trace digests) must equal its separate default run's.  The leave and the
failure paths are planted: a gate patched on one design point only, and
a cycle cap that one configuration's run exceeds.  The group runner takes
any configurations: UnsafeBaseline and sanitized runs get cores of their
own, and an unknown configuration gets its own error.
"""

import pytest

from repro.check.diff import group_diff_cell, outcome_of, run_outcome
from repro.core.attack_model import AttackModel
from repro.core.baselines import SecureBaseline
from repro.core.spt import SPTEngine
from repro.core.stt import STTEngine
from repro.experiments import figure7
from repro.harness import parallel
from repro.harness.configs import (BOTH_MODELS, CONFIGURATIONS,
                                   FIGURE7_ORDER, make_engine)
from repro.harness.parallel import (GroupSpecs, RunFailure, RunSpec,
                                    SimTally, TwinSpecs, run_many)
from repro.harness.runner import run_one, simulate, simulate_group
from repro.pipeline.core import OoOCore, SimulationError
from repro.pipeline.group import EngineGroup
from repro.pipeline.params import MachineParams
from repro.workloads.registry import WORKLOADS
from repro.workloads.registry import get as get_workload

BUDGET = 500
SPECTRE = AttackModel.SPECTRE
FUTURISTIC = AttackModel.FUTURISTIC
FWD = "SPT{Fwd,NoShadowL1}"


def _program(workload: str):
    return get_workload(workload).program(1)


# omnetpp..xalancbmk split into several classes of agreeing engines in
# both models; chacha20 is one class under the Spectre model.
@pytest.mark.parametrize("workload", ["omnetpp", "xz", "povray",
                                      "fotonik3d", "xalancbmk", "chacha20"])
def test_grouped_runs_match_separate_runs(workload):
    departed = {}
    for model in BOTH_MODELS:
        _, departures, mismatches = group_diff_cell(
            _program(workload), FIGURE7_ORDER, model, BUDGET)
        assert mismatches == [], "\n".join(mismatches)
        assert not any("raised" in line for line in departures), departures
        departed[model] = departures
    if workload == "chacha20":
        assert departed[SPECTRE] == []
    else:
        assert departed[SPECTRE] and departed[FUTURISTIC]


def test_planted_disagreement_leaves_exactly_that_member(monkeypatch):
    """The five SPT design points are one class on mcf; a gate patched on
    the forward-only design point alone makes exactly that member leave."""
    program = _program("mcf")
    # The forward-only point last: the lead answers for the group.
    spt = [config for config in FIGURE7_ORDER
           if config.startswith("SPT") and config != FWD] + [FWD]
    assert simulate_group(program, spt, FUTURISTIC, BUDGET).runs == 1
    unpatched = {config: run_outcome(program,
                                     make_engine(config, FUTURISTIC),
                                     BUDGET)[1]
                 for config in spt}
    original = SPTEngine.may_compute_address

    def fwd_never_gates(self, di):
        return True if not self.backward else original(self, di)

    monkeypatch.setattr(SPTEngine, "may_compute_address", fwd_never_gates)
    run = simulate_group(program, spt, FUTURISTIC, BUDGET,
                         setup=lambda core: setattr(core, "retired_pcs", []))
    assert [(config, query) for config, query, _ in run.departures] == \
        [(FWD, "may_compute_address")]
    assert run.runs == 2 and run.error == ""
    patched = run_outcome(program, make_engine(FWD, FUTURISTIC), BUDGET)[1]
    assert patched != unpatched[FWD], "the patch changed nothing"
    for config, sim in zip(spt, run.results):
        want = patched if config == FWD else unpatched[config]
        assert outcome_of(sim) == want, config


def test_group_run_that_raises_gives_each_member_its_own_error():
    """Only SecureBaseline's mcf run exceeds 3,700 cycles (3,927; the
    others take at most 3,481): the group run raises, and each member
    gets what its own run gives."""
    program = _program("mcf")
    params = MachineParams(max_cycles=3700)
    run = simulate_group(program, FIGURE7_ORDER, FUTURISTIC, BUDGET, params)
    assert "SimulationError" in run.error
    assert run.runs == 1 + len(FIGURE7_ORDER)
    for config, result in zip(FIGURE7_ORDER, run.results):
        try:
            want = simulate(program, config, FUTURISTIC, BUDGET, params)
        except SimulationError as exc:
            assert isinstance(result, SimulationError), config
            assert str(result) == str(exc)
        else:
            assert config != "SecureBaseline"
            assert result.cycles == want.cycles
            assert result.metrics.flatten() == want.metrics.flatten()
    assert isinstance(run.results[0], SimulationError)


@pytest.mark.parametrize("model", BOTH_MODELS, ids=lambda m: m.value)
def test_unsafe_baseline_gets_a_core_of_its_own(model):
    """UnsafeBaseline advances no visibility point: first in the list, it
    runs alone, and the protected configurations form mcf's 3 classes."""
    program = _program("mcf")
    configs = ["UnsafeBaseline", *FIGURE7_ORDER]
    run = simulate_group(program, configs, model, BUDGET,
                         setup=lambda core: setattr(core, "retired_pcs", []))
    assert run.runs == 1 + 3 and run.error == ""
    # Results of one core run share its observer.
    cores = [id(sim.observer) for sim in run.results]
    assert cores.count(cores[0]) == 1 and len(set(cores[1:])) == 3
    for config, sim in zip(configs, run.results):
        want = run_outcome(program, make_engine(config, model), BUDGET)[1]
        assert outcome_of(sim) == want, config


def test_sanitized_runs_get_a_core_each(run_modes):
    """A sanitizer checks one engine: all eight configurations under
    ``check_level="commit"`` make eight core runs, each its own run."""
    program = _program("mcf")
    params = MachineParams(check_level="commit")
    run = simulate_group(program, CONFIGURATIONS, FUTURISTIC, BUDGET, params)
    assert run.runs == len(run_modes) == 8
    for config, sim in zip(CONFIGURATIONS, run.results):
        want = simulate(program, config, FUTURISTIC, BUDGET, params)
        assert (sim.cycles, sim.metrics.flatten()) == \
            (want.cycles, want.metrics.flatten()), config


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_many_names_an_unknown_member(jobs, monkeypatch):
    """An unknown configuration fused beside SecureBaseline gets its own
    error, in-process and from a worker (a second cell makes the pool).
    The failing cell raises it where it runs, so the serial path runs no
    later cell."""
    cells = []
    real = parallel.run_group

    def counting(*args, **kwargs):
        cells.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "run_group", counting)
    secure, unknown = (RunSpec("mcf", config, SPECTRE,
                               max_instructions=BUDGET)
                       for config in ("SecureBaseline", "NotAConfig"))
    other = RunSpec("xz", "STT", SPECTRE, max_instructions=BUDGET)
    assert GroupSpecs.of(secure, unknown).specs == (secure, unknown)
    with pytest.raises(RunFailure) as failure:
        run_many([secure, unknown, other], jobs=jobs, use_cache=False)
    assert failure.value.spec == unknown
    assert failure.value.cause.startswith("KeyError")
    if jobs == 1:
        assert len(cells) == 1


def test_run_many_names_the_failing_member():
    params = MachineParams(max_cycles=3700)
    specs = [RunSpec("mcf", config, FUTURISTIC, max_instructions=BUDGET,
                     params=params)
             for config in ("SPT{Bwd,ShadowL1}", "STT", "SecureBaseline")]
    with pytest.raises(RunFailure) as failure:
        run_many(specs, jobs=1, use_cache=False)
    assert failure.value.spec == specs[2]
    assert failure.value.cause == "SimulationError: mcf: exceeded max_cycles"


def test_run_many_groups_the_protected_configurations():
    specs = figure7.specs(["mcf"], FIGURE7_ORDER, BOTH_MODELS, 1, BUDGET)
    tally = SimTally()
    results = run_many(specs, jobs=1, use_cache=False, tally=tally)
    # One UnsafeBaseline run (shared by the models), then one core run
    # per class: mcf has 3 in each model.
    assert tally.simulations == 1 + 3 + 3
    for spec, result in zip(specs, results):
        want = run_one(spec.workload, spec.config, spec.model,
                       max_instructions=BUDGET)
        assert (result.cycles, result.metrics.flatten()) == \
            (want.cycles, want.metrics.flatten()), spec.describe()


def test_figure7_grid_makes_130_core_runs(run_modes):
    """The budget-500 Figure 7 grid: 20 UnsafeBaseline runs and 110 runs
    for the 280 protected simulations, one per class of agreeing
    engines."""
    figure7.collect(list(WORKLOADS), scale=1, budget=BUDGET, jobs=1,
                    use_cache=False)
    assert len(run_modes) == 130


def test_group_cells_are_decided_from_the_specs():
    secure = RunSpec("mcf", "SecureBaseline", SPECTRE, max_instructions=9)
    stt = RunSpec("mcf", "STT", SPECTRE, max_instructions=9)
    spt = RunSpec("mcf", "SPT{Bwd,ShadowL1}", SPECTRE, max_instructions=9)
    group = GroupSpecs.of(GroupSpecs.of(secure, stt), spt)
    assert group.specs == (secure, stt, spt)
    unsafe = RunSpec("mcf", "UnsafeBaseline", SPECTRE, max_instructions=9)
    assert GroupSpecs.of(unsafe, stt).specs == (unsafe, stt)
    assert GroupSpecs.of(secure, unsafe).specs == (secure, unsafe)
    for other in (RunSpec("xz", "STT", SPECTRE, max_instructions=9),
                  RunSpec("mcf", "STT", FUTURISTIC, max_instructions=9),
                  RunSpec("mcf", "STT", SPECTRE, max_instructions=10),
                  RunSpec("mcf", "STT", SPECTRE, max_instructions=9,
                          params=MachineParams(check_level="commit"))):
        assert GroupSpecs.of(secure, other) is None


def test_twin_cells_group_like_specs():
    def twin(config, model=SPECTRE):
        return TwinSpecs(*(RunSpec(f"fuzz:quick:0:{secret}", config, model,
                                   max_instructions=9)
                           for secret in ("1f", "2e")))

    group = GroupSpecs.of(GroupSpecs.of(twin("SecureBaseline"), twin("STT")),
                          twin(FWD))
    assert group.specs == (twin("SecureBaseline"), twin("STT"), twin(FWD))
    assert group.describe().endswith("grouped with STT " + FWD)
    assert GroupSpecs.of(twin("UnsafeBaseline"), twin("STT")).specs == \
        (twin("UnsafeBaseline"), twin("STT"))
    for other in (twin("STT", FUTURISTIC), twin("STT").a):
        assert GroupSpecs.of(twin("SecureBaseline"), other) is None
    assert GroupSpecs.of(twin("STT").a, twin("SecureBaseline")) is None


def test_group_tick_never_calls_a_member_tick(monkeypatch):
    """perfbench times each engine class's ``tick`` as a per-cycle leaf:
    the group's tick must run its members' steps, not their ticks."""
    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.tick called")

    for cls in (SecureBaseline, SPTEngine, STTEngine):
        monkeypatch.setattr(cls, "tick", refuse)
    # One class on mcf: the group keeps both members to the end.
    group = EngineGroup([make_engine(config, FUTURISTIC) for config in
                         ("SPT{Bwd,ShadowL1}", "SPT{Ideal,ShadowMem}")])
    core = OoOCore(_program("mcf"), engine=group)
    core.run(max_instructions=BUDGET)
    assert core.engine is group and len(group.members) == 2


def test_group_of_one_hands_the_core_to_its_lead():
    engines = [make_engine(config, FUTURISTIC)
               for config in ("SecureBaseline", "STT")]
    group = EngineGroup(engines)
    core = OoOCore(_program("mcf"), engine=group)
    sim = core.run(max_instructions=BUDGET)
    assert [query for _, query, _ in group.departures] == \
        ["may_compute_address"]
    assert core.engine is engines[0]
    assert sim.cycles == simulate(_program("mcf"), "SecureBaseline",
                                  FUTURISTIC, BUDGET).cycles


def test_engines_of_different_attack_models_do_not_group():
    with pytest.raises(ValueError):
        EngineGroup([make_engine("STT", SPECTRE),
                     make_engine("STT", FUTURISTIC)])
    with pytest.raises(ValueError):
        EngineGroup([make_engine("UnsafeBaseline", SPECTRE),
                     make_engine("STT", SPECTRE)])
