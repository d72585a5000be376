"""Grouped runs: one core for the protected configurations that agree.

:func:`repro.check.diff.group_diff_cell` is the differential: every
configuration's projected outcome from the group runner (cycles, retired
count, halt, retired PCs, architectural registers, every metric path,
trace digests) must equal its separate default run's.  The leave and the
failure paths are planted: a gate patched on one design point only, and
a cycle cap that one configuration's run exceeds.
"""

import pytest

from repro.check.diff import group_diff_cell, outcome_of, run_outcome
from repro.core.attack_model import AttackModel
from repro.core.baselines import SecureBaseline
from repro.core.spt import SPTEngine
from repro.core.stt import STTEngine
from repro.experiments import figure7
from repro.harness.configs import BOTH_MODELS, FIGURE7_ORDER, make_engine
from repro.harness.parallel import (GroupSpecs, RunFailure, RunSpec,
                                    SimTally, run_many)
from repro.harness.runner import run_one, simulate, simulate_group
from repro.pipeline.core import OoOCore, SimulationError
from repro.pipeline.group import EngineGroup
from repro.pipeline.params import MachineParams
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
        departures, mismatches = group_diff_cell(
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


def test_group_cells_are_decided_from_the_specs():
    secure = RunSpec("mcf", "SecureBaseline", SPECTRE, max_instructions=9)
    stt = RunSpec("mcf", "STT", SPECTRE, max_instructions=9)
    spt = RunSpec("mcf", "SPT{Bwd,ShadowL1}", SPECTRE, max_instructions=9)
    group = GroupSpecs.of(GroupSpecs.of(secure, stt), spt)
    assert group.specs == (secure, stt, spt)
    unsafe = RunSpec("mcf", "UnsafeBaseline", SPECTRE, max_instructions=9)
    assert GroupSpecs.of(unsafe, stt) is None
    assert GroupSpecs.of(secure, unsafe) is None
    for other in (RunSpec("xz", "STT", SPECTRE, max_instructions=9),
                  RunSpec("mcf", "STT", FUTURISTIC, max_instructions=9),
                  RunSpec("mcf", "STT", SPECTRE, max_instructions=10),
                  RunSpec("mcf", "STT", SPECTRE, max_instructions=9,
                          params=MachineParams(check_level="commit"))):
        assert GroupSpecs.of(secure, other) is None


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
