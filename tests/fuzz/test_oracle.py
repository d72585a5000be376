"""Non-interference oracle: planted leaks and the verdicts built from them.

The planted gadgets here are the oracle's ground truth, as the default run
and as the checked run (stepped mode under the full sanitizer):

* a *speculative* bounds-check-bypass gadget must diverge under
  ``UnsafeBaseline`` and under no protected configuration;
* a *non-speculative* secret gadget must additionally diverge under STT
  (the scope gap of paper Section 3 that motivates SPT) while every SPT
  variant holds.
"""

import pytest

from repro.core.attack_model import AttackModel
from repro.fuzz.generator import Gadget, generate_plan, render, secret_pair, \
    with_blocks
from repro.fuzz.oracle import (CellVerdict, architectural_dependence,
                               check_pair_direct, divergence_detail)
from repro.harness.configs import CONFIGURATIONS
from repro.security.attacks import (NONSPECULATIVE, SPECULATIVE,
                                    expected_to_leak)

from tests.conftest import BOTH_MODELS, RUNS, run_params

SPT_CONFIGS = [name for name in CONFIGURATIONS if name.startswith("SPT")]


def _plan(exposure: str):
    gadget = Gadget(exposure=exposure, transmit="line", trainings=3, widen=8,
                    in_bounds=4, secret_index=10, shift=6)
    return with_blocks(generate_plan(0, "quick"), [gadget])


def _planted(exposure: str):
    plan = _plan(exposure)
    secrets = secret_pair(0)
    programs = tuple(render(plan, s) for s in secrets)
    assert not architectural_dependence(*programs)
    return programs


def _diverging(a, b, config, model, run, run_modes) -> list:
    """``check_pair_direct`` as the ``run`` run, checking which mode ran."""
    before = len(run_modes)
    channels = check_pair_direct(a, b, config, model,
                                 params=run_params(run))
    assert run_modes[before:] == [run == "checked"] * 2, (
        f"{run} run requested but the other mode ran")
    return channels


def test_unsafe_baseline_leaks_planted_speculative_gadget(run_modes):
    a, b = _planted("speculative")
    for run in RUNS:
        for model in BOTH_MODELS:
            channels = _diverging(a, b, "UnsafeBaseline", model, run,
                                  run_modes)
            assert "load-line" in channels, (
                f"{run} run: the secret-dependent probe load must move "
                f"across cache lines")


def test_protected_configs_hold_on_speculative_gadget(run_modes):
    a, b = _planted("speculative")
    for run in RUNS:
        for config in ["SecureBaseline", "STT", *SPT_CONFIGS]:
            for model in BOTH_MODELS:
                assert not _diverging(a, b, config, model, run,
                                      run_modes), (
                    f"{config}/{model.value}, {run} run, leaked a "
                    f"speculatively-accessed secret")


def test_stt_scope_gap_on_nonspeculative_gadget(run_modes):
    """STT leaks a non-speculatively accessed secret; SPT must not."""
    a, b = _planted("nonspeculative")
    for run in RUNS:
        assert _diverging(a, b, "UnsafeBaseline", AttackModel.SPECTRE,
                          run, run_modes)
        assert _diverging(a, b, "STT", AttackModel.SPECTRE, run,
                          run_modes), (
            f"{run} run: the planted nonspec gadget must expose STT's "
            f"scope gap")
        for config in SPT_CONFIGS + ["SecureBaseline"]:
            for model in BOTH_MODELS:
                assert not _diverging(a, b, config, model, run,
                                      run_modes), (
                    f"{config}/{model.value}, {run} run, leaked a "
                    f"non-speculatively accessed secret")


def test_expected_divergence_matrix():
    """The campaign keys the leak rule by the plan's exposure class: a
    planted non-speculative gadget makes the whole plan non-speculative."""
    for exposure in (SPECULATIVE, NONSPECULATIVE):
        assert _plan(exposure).exposure == exposure
    expected = {config: [expected_to_leak(_plan(exposure).exposure, config)
                         for exposure in (SPECULATIVE, NONSPECULATIVE)]
                for config in CONFIGURATIONS}
    assert expected.pop("UnsafeBaseline") == [True, True]
    assert expected.pop("STT") == [False, True]
    assert set(expected) == set(SPT_CONFIGS) | {"SecureBaseline"}
    for config, row in expected.items():
        assert row == [False, False], config


def test_classify_flags_counterexamples():
    """A cell's verdict, as the campaign builds it from the leak rule."""
    def verdict(config, channels):
        return CellVerdict(config, AttackModel.SPECTRE, tuple(channels),
                           expected_to_leak("speculative", config))

    ok = verdict("SPT{Bwd,ShadowL1}", [])
    assert not ok.diverged and not ok.counterexample
    expected = verdict("UnsafeBaseline", ["load-line"])
    assert expected.diverged and expected.expected
    assert not expected.counterexample
    bad = verdict("SPT{Bwd,ShadowL1}", ["load-line"])
    assert bad.diverged and bad.counterexample and not bad.expected


def test_divergence_detail_shows_differing_events():
    a, b = _planted("speculative")
    detail = divergence_detail(a, b, "UnsafeBaseline", AttackModel.SPECTRE)
    assert detail.strip(), "a diverging pair must produce a visible diff"


def test_oracle_rejects_bad_exposure():
    """A gadget of an unknown exposure class renders to no victim, and the
    leak rule gives it no expectation."""
    plan = _plan("banana")
    with pytest.raises(ValueError, match="exposure"):
        render(plan, secret_pair(0)[0])
    with pytest.raises(ValueError, match="exposure"):
        expected_to_leak("banana", "STT")
