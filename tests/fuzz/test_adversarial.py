"""Adversarial campaign: mutation operators, scoring, and the guided search.

The full 10-seed hill-climb-vs-uniform comparison lives in the slow tier
(``--run-slow``); the fast tests pin the pieces the comparison relies on —
mutation closure over the plan IR, score monotonicity in the window width,
budget accounting, and determinism.
"""

import random

import pytest

from repro.core.attack_model import AttackModel
from repro.fuzz.adversarial import (INSTRUMENT_CONFIG, SearchOutcome,
                                    _instrument_score, hill_climb, mutate,
                                    render_outcome, taint_reach_score,
                                    uniform_search)
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.generator import (PROFILES, Gadget, generate_plan, render,
                                  secret_pair)
from repro.fuzz.oracle import architectural_dependence

HARD = PROFILES["hard"]


# ---------------------------------------------------------------- mutation
def test_mutate_preserves_gadget_and_invariants():
    rng = random.Random("mutate-closure")
    plan = generate_plan(7, "hard")
    for _ in range(200):
        plan = mutate(plan, rng, HARD)
        assert plan.gadgets, "mutation dropped the last gadget"
        for block in plan.blocks:
            if isinstance(block, Gadget):
                assert 0 <= block.widen <= 48
                assert 0 <= block.trainings <= 8


def test_mutate_is_deterministic_per_rng_seed():
    plan = generate_plan(3, "hard")
    out = [mutate(plan, random.Random("fixed"), HARD) for _ in range(2)]
    assert out[0] == out[1]


def test_mutated_plans_stay_architecturally_secret_independent():
    rng = random.Random("arch-indep")
    plan = generate_plan(11, "hard")
    for _ in range(25):
        plan = mutate(plan, rng, HARD)
    a, b = secret_pair(plan.seed)
    assert not architectural_dependence(render(plan, a), render(plan, b),
                                        200_000)


# ----------------------------------------------------------------- scoring
def test_taint_reach_score_weights_transmit_delay():
    low = taint_reach_score({"protection.transmitters_delayed_cycles": 10})
    high = taint_reach_score({"protection.transmitters_delayed_cycles": 200})
    assert high > low > 0
    assert taint_reach_score({}) == 0.0


def test_instrument_score_grows_with_window_width():
    """The gradient the climber follows: widening a gadget's speculation
    window increases the taint-reach score under the instrument config."""
    from dataclasses import replace

    from repro.fuzz.generator import with_blocks
    plan = generate_plan(2, "hard")
    gadget = plan.gadgets[0]
    scores = []
    for widen in (0, 4, 8):
        blocks = [replace(b, widen=widen) if b is gadget else b
                  for b in plan.blocks]
        score = _instrument_score(with_blocks(plan, blocks),
                                  AttackModel.SPECTRE, 200_000)
        assert score is not None
        scores.append(score)
    assert scores[0] < scores[1] < scores[2], scores


# ------------------------------------------------------------------ search
def test_hill_climb_finds_leak_outside_sampled_envelope():
    outcome = hill_climb(profile="hard", config="UnsafeBaseline",
                         model=AttackModel.SPECTRE, budget=400, seed=5)
    assert outcome.found and outcome.plan is not None
    assert outcome.channels
    assert outcome.sims <= 400
    assert not outcome.counterexample      # UnsafeBaseline leaks by design
    text = render_outcome(outcome)
    assert "leaking plan" in text and "COUNTEREXAMPLE" not in text


def test_hill_climb_is_deterministic():
    runs = [hill_climb(profile="hard", budget=120, seed=3)
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_uniform_search_exhausts_budget_on_hard_profile():
    """The sampled envelope is leak-free: uniform search burns the whole
    budget without a verdict, which is the baseline the climber beats."""
    outcome = uniform_search(profile="hard", config="UnsafeBaseline",
                             model=AttackModel.SPECTRE, budget=60,
                             seed_start=0)
    assert not outcome.found
    assert outcome.sims == 60 and outcome.evals == 30


def test_budget_is_a_hard_ceiling():
    outcome = hill_climb(profile="hard", budget=5, seed=0)
    assert outcome.sims <= 5
    assert isinstance(outcome, SearchOutcome)


def test_no_leak_on_protected_config_within_small_budget():
    outcome = hill_climb(profile="hard", config="SPT{Bwd,ShadowL1}",
                         model=AttackModel.SPECTRE, budget=45, seed=0)
    assert not outcome.found
    assert not outcome.counterexample
    assert "no leaking plan" in render_outcome(outcome)


def test_instrument_config_is_the_full_design():
    assert INSTRUMENT_CONFIG == "SPT{Bwd,ShadowL1}"


# --------------------------------------------------------------------- CLI
def test_cli_adversarial_compare_uniform(capsys):
    code = fuzz_main(["--adversarial", "--profile", "hard",
                      "--budget", "400", "--compare-uniform",
                      "--models", "spectre", "--seed-start", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "hill-climb" in out and "uniform" in out
    assert "advantage: hill-climb leaked" in out


@pytest.mark.slow
def test_hill_climb_beats_uniform_across_seeds():
    """The acceptance demo: over several seeds, guided search reaches a
    leaking plan while uniform sampling exhausts the same budget."""
    hill_sims, uniform_found = [], 0
    for seed in range(4):
        h = hill_climb(profile="hard", budget=400, seed=seed)
        u = uniform_search(profile="hard", budget=400, seed_start=seed * 1000)
        assert h.found, f"hill-climb missed at seed {seed}"
        hill_sims.append(h.sims)
        uniform_found += u.found
    assert uniform_found == 0
    assert max(hill_sims) < 400
