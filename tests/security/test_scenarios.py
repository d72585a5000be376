"""The attack scenario library and the leak rule it is judged by.

The full matrix (every scenario x Table 2 config x attack model, as the
default run and as the checked run) must match the rule
(:func:`repro.security.attacks.expected_to_leak`) exactly:

* speculative exposure (spectre-pht, spectre-stl, uninit-transient): only
  UnsafeBaseline leaks;
* non-speculative exposure (spectre-btb, spectre-rsb, nonspec-secret):
  UnsafeBaseline *and STT* leak — the protection-scope gap SPT closes.
"""

import pytest

from repro.core.attack_model import AttackModel
from repro.harness.configs import CONFIGURATIONS
from repro.harness.parallel import RunFailure
from repro.memory.main_memory import uninit_byte
from repro.security import attacks, scenarios
from repro.security.attacks import (EXPOSURES, NONSPECULATIVE, SPECULATIVE,
                                    expected_to_leak)

from tests.conftest import BOTH_MODELS, RUNS, run_params

SECRETS = (0x11, 0x80, 0xFE)


def test_registry_covers_all_variants():
    assert set(scenarios.SCENARIOS) == {
        "spectre-pht", "spectre-btb", "spectre-rsb", "spectre-stl",
        "nonspec-secret", "uninit-transient"}
    for s in scenarios.SCENARIOS.values():
        assert s.exposure in EXPOSURES


def _expected(name: str, config: str) -> bool:
    return expected_to_leak(scenarios.SCENARIOS[name].exposure, config)


def test_expectation_rows():
    """The one rule the matrix, the fuzz campaign and the adversarial
    search judge by: UnsafeBaseline leaks both exposure classes, STT
    additionally leaks a non-speculatively accessed secret, and SPT and
    SecureBaseline block both."""
    assert EXPOSURES == (SPECULATIVE, NONSPECULATIVE)
    leaking = {SPECULATIVE: {"UnsafeBaseline"},
               NONSPECULATIVE: {"UnsafeBaseline", "STT"}}
    assert len(CONFIGURATIONS) == 8
    for exposure in EXPOSURES:
        for config in CONFIGURATIONS:
            assert expected_to_leak(exposure, config) == \
                (config in leaking[exposure]), (exposure, config)
    for name, s in scenarios.SCENARIOS.items():
        for config in CONFIGURATIONS:
            assert _expected(name, config) == \
                (config in leaking[s.exposure]), (name, config)


def test_expected_to_leak_rejects_unknown_names():
    with pytest.raises(ValueError, match="exposure"):
        expected_to_leak("banana", "STT")
    with pytest.raises(ValueError, match="configuration"):
        expected_to_leak(SPECULATIVE, "NotAConfig")


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("model", BOTH_MODELS)
@pytest.mark.parametrize("config", list(CONFIGURATIONS))
@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_scenario_cell_matches_expectation(name, config, model, run,
                                           run_modes):
    leaked, sim = scenarios.run_scenario(name, config, model,
                                         params=run_params(run))
    assert run_modes == [run == "checked"], "wrong mode ran"
    assert sim.halted
    assert leaked == _expected(name, config), (
        f"{name} under {config}/{model.value}, {run} run: leaked={leaked}")


def test_spectre_pht_leaks_arbitrary_bytes_on_unsafe():
    build = scenarios.SCENARIOS["spectre-pht"].build
    for secret in SECRETS:
        leaked, _ = scenarios.run_attack(build(secret=secret),
                                         "UnsafeBaseline",
                                         AttackModel.FUTURISTIC)
        assert leaked, hex(secret)


def test_spt_blocks_arbitrary_bytes():
    build = scenarios.SCENARIOS["spectre-pht"].build
    for secret in SECRETS:
        leaked, _ = scenarios.run_attack(build(secret=secret),
                                         "SPT{Bwd,ShadowL1}",
                                         AttackModel.FUTURISTIC)
        assert not leaked, hex(secret)


@pytest.mark.parametrize("name", sorted(set(scenarios.SCENARIOS)
                                        - {"uninit-transient"}))
def test_attack_builders_reject_out_of_range_secrets(name):
    build = scenarios.SCENARIOS[name].build
    for secret in (-1, 0x100, 300):
        with pytest.raises(ValueError, match="byte"):
            build(secret=secret)


def test_matrix_holds_at_small_params(small_params):
    """The expectation rows are not an artefact of the default core size."""
    for name in scenarios.SCENARIOS:
        for config in ("UnsafeBaseline", "STT", "SPT{Bwd,ShadowL1}"):
            leaked, _ = scenarios.run_scenario(name, config,
                                               AttackModel.SPECTRE,
                                               params=small_params)
            assert leaked == _expected(name, config), (
                f"{name} under {config} at small_params: leaked={leaked}")


def test_matrix_deterministic_across_worker_processes():
    kwargs = dict(scenarios=["spectre-btb", "uninit-transient"],
                  configs=["UnsafeBaseline", "STT", "SPT{Bwd,ShadowL1}"],
                  models=[AttackModel.SPECTRE])
    solo = scenarios.scenario_matrix(jobs=1, **kwargs)
    pooled = scenarios.scenario_matrix(jobs=2, **kwargs)
    assert solo == pooled
    assert all(r.passed for r in solo)


def test_matrix_runs_one_group_per_scenario_and_model(run_modes):
    """Each (scenario, model) row is one UnsafeBaseline run plus one group
    run over the protected configurations, and members that leave it run
    again: 96 cells in 48 core runs."""
    results = scenarios.scenario_matrix(jobs=1)
    assert len(results) == 96 and all(r.passed for r in results)
    assert len(run_modes) == 48


def test_matrix_rejects_unknown_scenario():
    with pytest.raises(KeyError):
        scenarios.scenario_matrix(scenarios=["not-a-scenario"])


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_cell_names_itself(jobs, run_modes):
    """A cell that raises, in-process or in a worker, fails the matrix with
    a RunFailure naming the cell, not a bare exception from somewhere (the
    first failing cell: the Spectre row runs first).  The row raises it
    where it runs, so in-process the Futuristic row never runs: one core
    run, the Spectre row's UnsafeBaseline."""
    with pytest.raises(RunFailure) as excinfo:
        scenarios.scenario_matrix(["spectre-pht"],
                                  configs=["UnsafeBaseline", "NotAConfig"],
                                  models=BOTH_MODELS, jobs=jobs)
    message = str(excinfo.value)
    assert "scenario=spectre-pht config=NotAConfig model=SPECTRE" in message
    assert "KeyError" in message
    assert excinfo.value.spec == scenarios.ScenarioCell(
        "spectre-pht", "NotAConfig", "SPECTRE")
    if jobs == 1:
        assert len(run_modes) == 1


def test_render_matrix_flags_mismatches():
    ok = scenarios.ScenarioResult("spectre-pht", "STT", "SPECTRE",
                                  leaked=False, expected=False)
    bad = scenarios.ScenarioResult("spectre-pht", "UnsafeBaseline", "SPECTRE",
                                   leaked=False, expected=True)
    text = scenarios.render_matrix([ok, bad])
    assert "none" in text
    assert "none(!)" in text


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_attack_records_where_its_secret_lives(name):
    if name == "uninit-transient":
        # The secret is a never-written heap byte: only the fill hash
        # knows it, so the image must not.
        attack = attacks.uninit_transient(seed=0x5EED)
        assert attack.secret_address not in attack.program.initial_memory
        assert uninit_byte(0x5EED, attack.secret_address) + 1 == \
            attack.secret
    else:
        attack = scenarios.SCENARIOS[name].build(secret=0x42)
        assert attack.program.initial_memory[attack.secret_address] == 0x42


def test_stl_requires_memory_dependence_speculation():
    # Without the override the load waits for the older store's address and
    # forwards the public value: no transient window, even on the unsafe core.
    attack = attacks.spectre_stl()
    assert attack.overrides == {"memory_dependence_speculation": True}
    from repro.harness.configs import make_engine
    from repro.pipeline.core import OoOCore
    core = OoOCore(attack.program,
                   engine=make_engine("UnsafeBaseline", AttackModel.SPECTRE))
    sim = core.run(max_instructions=500_000)
    assert sim.halted and not attack.leaked(sim.observer)


def test_uninit_transient_seed_selects_the_leaked_line():
    a = attacks.uninit_transient(seed=0x5EED)
    b = attacks.uninit_transient(seed=0x1234)
    assert a.secret != b.secret     # different seeds leak different bytes
    leaked_a, _ = scenarios.run_scenario("uninit-transient", "UnsafeBaseline",
                                         AttackModel.SPECTRE)
    assert leaked_a


def test_uninit_transient_trace_equivalence_across_seeds():
    # Two seeds fill uninitialised memory with different secrets.  Under SPT
    # the attacker-visible trace must be identical across seeds (no leak);
    # on the unsafe baseline the probe access betrays the seed.
    from repro.security.observer import differing_events

    def trace(seed, config):
        _, sim = scenarios.run_attack(attacks.uninit_transient(seed=seed),
                                      config, AttackModel.SPECTRE)
        return sim.observer

    seeds = (0x5EED, 0x1234)
    spt = [trace(s, "SPT{Bwd,ShadowL1}") for s in seeds]
    assert not differing_events(spt[0], spt[1]), (
        "SPT must make the trace independent of uninitialised memory")
    unsafe = [trace(s, "UnsafeBaseline") for s in seeds]
    assert differing_events(unsafe[0], unsafe[1])
