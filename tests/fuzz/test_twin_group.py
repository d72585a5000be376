"""Twin groups: one paired core for the protected configurations that agree.

:func:`repro.check.diff.group_diff_cell` with a twin is the differential:
for every configuration, each side's projected outcome from the twin-group
runner (cycles, retired count and PCs, halt, architectural registers,
every metric path, trace digests) must equal its separate run's, and a
configuration whose separate traces differ must have fallen back.  The
leave, divergence and raise paths are planted: a gate patched on one
design point only, one victim per steering site, and a cycle cap that
some configurations' runs exceed.  An unknown configuration in a twin
group gets its own error.
"""

import pytest

from repro.check.diff import group_diff_cell, outcome_of
from repro.core.attack_model import AttackModel
from repro.core.spt import SPTEngine
from repro.fuzz.generator import generate_plan, secret_pair, workload_name
from repro.fuzz.oracle import FUZZ_BUDGET
from repro.harness.configs import BOTH_MODELS, SECURE_CONFIGS
from repro.harness.parallel import RunFailure, RunSpec, TwinSpecs, run_many
from repro.harness.runner import PAIRED_ERROR, simulate_group, simulate_pair
from repro.pipeline.core import SimulationError
from repro.pipeline.params import MachineParams
from repro.pipeline.relational import SITES

from tests.fuzz.test_oracle import SPT_CONFIGS, _planted
from tests.fuzz.test_paired import SITE_VICTIMS, _renderings, _site_victim

SPECTRE = AttackModel.SPECTRE
FUTURISTIC = AttackModel.FUTURISTIC
FWD = "SPT{Fwd,NoShadowL1}"


def _differential(programs) -> tuple:
    """The protected configurations' twin groups under both models:
    ``({model: fallbacks}, {model: departures})``; fails on any mismatch
    or group run that raised."""
    fallbacks, departed, problems = {}, {}, []
    for model in BOTH_MODELS:
        got, departures, mismatches = group_diff_cell(
            programs[0], SECURE_CONFIGS, model, FUZZ_BUDGET,
            twin=programs[1])
        fallbacks[model], departed[model] = got, departures
        problems += [f"{model.value}: {line}" for line in mismatches]
        problems += [f"{model.value}: {line}" for line in departures
                     if "raised" in line]
    assert not problems, "\n".join(problems)
    return fallbacks, departed


def test_twin_groups_match_separate_runs_on_quick_seeds():
    fallbacks, departures = [], []
    for seed in range(6):
        got, departed = _differential(
            _renderings(generate_plan(seed, "quick"), seed))
        fallbacks += [f for model in got for f in got[model]]
        departures += [d for model in departed for d in departed[model]]
    assert None in fallbacks and set(fallbacks) - {None}
    assert set(fallbacks) <= {None, *SITES}
    assert departures, "no member ever left a group"


def test_twin_groups_match_separate_runs_on_planted_gadgets():
    for exposure in ("speculative", "nonspeculative"):
        fallbacks, _ = _differential(_planted(exposure))
        for model in BOTH_MODELS:
            by_config = dict(zip(SECURE_CONFIGS, fallbacks[model]))
            for config in SPT_CONFIGS:
                assert by_config[config] is None, (exposure, config, model)


@pytest.mark.parametrize("site", SITES)
def test_divergence_gives_every_member_the_site(site):
    """An architectural secret reaches a steering site under every
    protected configuration: each member records that site, and both of
    its sides equal their separate runs."""
    programs = tuple(_site_victim(SITE_VICTIMS[site], secret)
                     for secret in (1, 2))
    fallbacks, _ = _differential(programs)
    for model in BOTH_MODELS:
        assert fallbacks[model] == [site] * len(SECURE_CONFIGS), model


def test_planted_disagreement_leaves_exactly_that_member(monkeypatch):
    """The four SPT design points short of Ideal are one class on quick
    seed 0 under the Spectre model; a gate patched on the forward-only
    design point alone makes exactly that member leave, and its pair
    equals its own patched paired run."""
    programs = _renderings(generate_plan(0, "quick"), 0)
    # The forward-only point last: the lead answers for the group.
    spt = [config for config in SPT_CONFIGS
           if config not in (FWD, "SPT{Ideal,ShadowMem}")] + [FWD]
    assert simulate_group(programs[0], spt, SPECTRE, FUZZ_BUDGET,
                          twin=programs[1]).runs == 1

    def pair(config):
        run = simulate_pair(*programs, config, SPECTRE, FUZZ_BUDGET)
        return run.fallbacks[0], [outcome_of(sim) for sim in run.results[0]]

    unpatched = {config: pair(config) for config in spt}
    original = SPTEngine.may_compute_address

    def fwd_never_gates(self, di):
        return True if not self.backward else original(self, di)

    monkeypatch.setattr(SPTEngine, "may_compute_address", fwd_never_gates)
    run = simulate_group(programs[0], spt, SPECTRE, FUZZ_BUDGET,
                         twin=programs[1])
    assert [(config, query) for config, query, _ in run.departures] == \
        [(FWD, "may_compute_address")]
    assert run.error == ""
    patched = pair(FWD)
    # Ungated, the forward-only point lets the secret steer a load.
    assert patched[0] == "load-address" and unpatched[FWD][0] is None
    # One group run, then the member that left: a paired run that
    # diverges and its two separate runs.
    assert run.runs == 1 + 3
    for config, sims, fallback in zip(spt, run.results, run.fallbacks):
        want = patched if config == FWD else unpatched[config]
        assert (fallback, [outcome_of(sim) for sim in sims]) == want, config


def test_group_run_that_raises_gives_each_member_its_own_pair_outcome():
    """On quick seed 0 under the Futuristic model, SecureBaseline (2,502
    cycles) and four SPT points (1,500) exceed a 1,480-cycle cap, and
    SPT{Ideal,ShadowMem} (1,468) and STT (1,199) do not: the group run
    raises, and each member gets what its own paired run gives."""
    programs = _renderings(generate_plan(0, "quick"), 0)
    params = MachineParams(max_cycles=1480)
    run = simulate_group(programs[0], SECURE_CONFIGS, FUTURISTIC,
                         FUZZ_BUDGET, params, twin=programs[1])
    assert "SimulationError" in run.error
    raised = []
    for config, result, fallback in zip(SECURE_CONFIGS, run.results,
                                        run.fallbacks):
        try:
            want = simulate_pair(*programs, config, FUTURISTIC, FUZZ_BUDGET,
                                 params)
        except SimulationError as exc:
            assert isinstance(result, SimulationError), config
            assert str(result) == str(exc)
            assert fallback == PAIRED_ERROR
            raised.append(config)
        else:
            assert fallback == want.fallbacks[0], config
            assert [outcome_of(sim) for sim in result] == \
                [outcome_of(sim) for sim in want.results[0]], config
    assert raised == SECURE_CONFIGS[:5]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_many_names_an_unknown_twin_member(jobs):
    """An unknown configuration fused beside SecureBaseline in a twin group
    gets its own error, in-process and from a worker (a second cell makes
    the pool), and the twin cell that names it fails the sweep."""
    def twin(config):
        return [RunSpec(workload_name("quick", 0, secret), config, SPECTRE,
                        max_instructions=FUZZ_BUDGET, collect_trace=True)
                for secret in secret_pair(0)]

    specs = twin("SecureBaseline") + twin("NotAConfig")
    other = RunSpec("mcf", "STT", SPECTRE, max_instructions=500)
    with pytest.raises(RunFailure) as failure:
        run_many(specs + [other], jobs=jobs, use_cache=False)
    assert failure.value.spec == TwinSpecs(*specs[2:])
    assert failure.value.cause.startswith("KeyError")


@pytest.mark.slow
def test_twin_groups_match_separate_runs_nightly():
    """The nightly differential: 300 default-profile seeds x the protected
    configurations x both attack models."""
    for seed in range(300):
        _differential(_renderings(generate_plan(seed, "default"), seed))
