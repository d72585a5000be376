"""The paired run of twin programs against two separate runs.

:func:`repro.check.diff.pair_diff_cell` is the differential: each side of
the pair runner's result must equal its separate run's projected outcome
(cycles, retired count, halt, retired PCs, architectural registers, every
metric path, per-channel trace digests), and a pair whose separate traces
differ must have fallen back.  Planted victims pin one fallback per
steering site, and a transient secret branch that must stay paired.
"""

import pytest

from repro.check.diff import pair_diff_cell
from repro.core.attack_model import AttackModel
from repro.fuzz.generator import (Gadget, generate_plan, render,
                                  secret_pair, with_blocks)
from repro.fuzz.oracle import FUZZ_BUDGET
from repro.harness.configs import BOTH_MODELS, CONFIGURATIONS
from repro.isa.builder import ProgramBuilder
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams
from repro.pipeline.relational import (BRANCH, INDIRECT_JUMP, LOAD_ADDRESS,
                                       SITES, STORE_ADDRESS, Pair,
                                       PairedCore, join, side)

from tests.fuzz.test_oracle import SPT_CONFIGS, _planted

SPECTRE = AttackModel.SPECTRE


def _differential(programs, configs=CONFIGURATIONS,
                  models=BOTH_MODELS) -> dict:
    """``{(config, model): fallback}``; fails on any mismatch."""
    fallbacks = {}
    problems = []
    for config in configs:
        for model in models:
            fallback, mismatches = pair_diff_cell(*programs, config, model,
                                                  FUZZ_BUDGET)
            fallbacks[config, model] = fallback
            problems += [f"{config}/{model.value}: {line}"
                         for line in mismatches]
    assert not problems, "\n".join(problems)
    return fallbacks


def _renderings(plan, seed: int) -> tuple:
    return tuple(render(plan, secret) for secret in secret_pair(seed))


def test_paired_runs_match_separate_runs_on_quick_seeds():
    fallbacks = []
    for seed in range(6):
        programs = _renderings(generate_plan(seed, "quick"), seed)
        fallbacks += _differential(programs).values()
    assert None in fallbacks, "no cell ran as one paired run"
    assert set(fallbacks) - {None}, "no cell fell back"
    assert set(fallbacks) <= {None, *SITES}


def test_paired_runs_match_separate_runs_on_planted_gadgets():
    for exposure in ("speculative", "nonspeculative"):
        fallbacks = _differential(_planted(exposure))
        assert fallbacks["UnsafeBaseline", SPECTRE] in SITES, exposure
        for config in SPT_CONFIGS:
            assert fallbacks[config, SPECTRE] is None, (exposure, config)


# ------------------------------------------------- one victim per site
def _load_address(b):
    b.andi("a1", "a0", 1)
    b.slli("a1", "a1", 6)
    b.add("a1", "a1", "s1")
    b.ld("a2", "a1", 0)


def _store_address(b):
    b.andi("a1", "a0", 1)
    b.slli("a1", "a1", 6)
    b.add("a1", "a1", "s1")
    b.sd("a0", "a1", 0)


def _branch(b):
    skip = b.forward_label()
    b.andi("a1", "a0", 1)
    b.beq("a1", "zero", skip)
    b.addi("a2", "a2", 1)
    b.place(skip)


def _indirect_jump(b):
    """Jump to ``land`` or past its load: the targets differ visibly."""
    land = b.forward_label()
    b.andi("a1", "a0", 1)
    b.li("a2", land)
    b.add("a2", "a2", "a1")
    b.jalr("zero", "a2", 0)
    b.place(land)
    b.ld("a3", "s1", 128)
    b.nop()


SITE_VICTIMS = {LOAD_ADDRESS: _load_address, STORE_ADDRESS: _store_address,
                BRANCH: _branch, INDIRECT_JUMP: _indirect_jump}


def _site_victim(body, secret: int):
    """Load a secret word architecturally, then run ``body`` on it."""
    b = ProgramBuilder(f"site-{secret}")
    b.alloc_words("secret", [secret])
    b.reserve("probe", 256, align=64)
    b.li("s0", "secret")
    b.li("s1", "probe")
    b.ld("a0", "s0", 0)
    body(b)
    b.halt()
    return b.build()


@pytest.mark.parametrize("site", SITES)
def test_each_steering_site_falls_back_to_the_separate_runs(site):
    programs = tuple(_site_victim(SITE_VICTIMS[site], secret)
                     for secret in (1, 2))
    fallbacks = _differential(programs, ["UnsafeBaseline",
                                         "SPT{Bwd,ShadowL1}"], [SPECTRE])
    assert set(fallbacks.values()) == {site}


def test_transient_secret_branch_under_spt_stays_paired(monkeypatch):
    """A secret loaded architecturally meets a branch on a mistrained
    call's transient path.  SPT holds the branch's resolution back until
    the call's misprediction squashes it: the branch executes with
    differing outcomes, never resolves, and so steers nothing."""
    # Secret byte 11 is the first whose low bit, the branch predicate,
    # differs between the two secrets of seed 0.
    gadget = Gadget(exposure="nonspeculative", transmit="branch",
                    trainings=3, widen=8, in_bounds=4, secret_index=11,
                    shift=6)
    programs = _renderings(with_blocks(generate_plan(0, "quick"),
                                       [gadget]), 0)
    executed = []
    real = PairedCore._branch_outcome

    def spy(core, di):
        real(core, di)
        if type(di.actual_taken) is Pair:
            executed.append(di.pc)

    monkeypatch.setattr(PairedCore, "_branch_outcome", spy)
    fallbacks = _differential(programs, SPT_CONFIGS, [SPECTRE])
    assert set(fallbacks.values()) == {None}
    assert executed, "the secret branch never executed with two outcomes"
    fallbacks = _differential(programs, ["UnsafeBaseline", "STT"],
                              [SPECTRE])
    assert set(fallbacks.values()) <= set(SITES)


def test_differential_fails_without_the_resolution_check(monkeypatch):
    """A mutation: the paired core drops the resolution check and applies
    the first side's outcome, so a paired run follows one side to the end
    and serves both.  The differential must catch the silently wrong run,
    not only a run that raised."""
    def follow_side_a(core, di):
        di.actual_taken = side(di.actual_taken, 0)
        di.actual_target = side(di.actual_target, 0)
        di.mispredicted = side(di.mispredicted, 0)
        OoOCore._apply_resolution(core, di)

    monkeypatch.setattr(PairedCore, "_apply_resolution", follow_side_a)
    for site in (BRANCH, INDIRECT_JUMP):
        programs = tuple(_site_victim(SITE_VICTIMS[site], secret)
                         for secret in (1, 2))
        fallback, mismatches = pair_diff_cell(
            *programs, "UnsafeBaseline", SPECTRE, FUZZ_BUDGET)
        assert fallback is None, site
        assert ("the separate runs' traces differ, but one paired run "
                "served both") in mismatches, site
        assert any(line.startswith("side b: ") for line in mismatches), site
        assert not any(line.startswith("side a: ")
                       for line in mismatches), site


def test_pair_values_stay_plain_where_the_sides_agree():
    assert join(3, 3) == 3
    pair = join(3, 4)
    assert type(pair) is Pair and (side(pair, 0), side(pair, 1)) == (3, 4)
    for misuse in (bool, hash, lambda p: p == 3, lambda p: p < 3):
        with pytest.raises(TypeError):
            misuse(pair)


def test_paired_core_refuses_non_twins_and_the_sanitizer():
    a = _site_victim(_branch, 1)
    with pytest.raises(ValueError, match="twins"):
        PairedCore(a, _site_victim(_load_address, 1))
    with pytest.raises(ValueError, match="sanitizer"):
        PairedCore(a, _site_victim(_branch, 2),
                   params=MachineParams(check_level="commit"))


@pytest.mark.slow
def test_paired_runs_match_separate_runs_nightly():
    """The nightly differential: 300 default-profile seeds x every
    configuration x both attack models."""
    for seed in range(300):
        _differential(_renderings(generate_plan(seed, "default"), seed))
