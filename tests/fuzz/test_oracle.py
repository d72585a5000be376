"""Non-interference oracle: planted leaks and the expected-divergence matrix.

The planted gadgets here are the oracle's ground truth, on both the
reference and the vector core:

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
from repro.fuzz.oracle import (architectural_dependence, check_pair_direct,
                               classify, divergence_detail,
                               expected_to_diverge)
from repro.harness.configs import CONFIGURATIONS
from repro.pipeline.params import MachineParams

from tests.conftest import BACKENDS, BOTH_MODELS

SPT_CONFIGS = [name for name in CONFIGURATIONS if name.startswith("SPT")]


def _planted(exposure: str):
    gadget = Gadget(exposure=exposure, transmit="line", trainings=3, widen=8,
                    in_bounds=4, secret_index=10, shift=6)
    plan = with_blocks(generate_plan(0, "quick"), [gadget])
    secrets = secret_pair(0)
    programs = tuple(render(plan, s) for s in secrets)
    assert not architectural_dependence(*programs)
    return programs


def _diverging(a, b, config, model, backend, vector_runs) -> list:
    """``check_pair_direct`` on ``backend``, checking which core ran."""
    before = len(vector_runs)
    channels = check_pair_direct(a, b, config, model,
                                 params=MachineParams(backend=backend))
    assert len(vector_runs) - before == (2 if backend == "vector" else 0), (
        f"{backend} requested but the other core ran")
    return channels


def test_unsafe_baseline_leaks_planted_speculative_gadget(vector_runs):
    a, b = _planted("speculative")
    for backend in BACKENDS:
        for model in BOTH_MODELS:
            channels = _diverging(a, b, "UnsafeBaseline", model, backend,
                                  vector_runs)
            assert "load-line" in channels, (
                f"{backend}: the secret-dependent probe load must move "
                f"across cache lines")


def test_protected_configs_hold_on_speculative_gadget(vector_runs):
    a, b = _planted("speculative")
    for backend in BACKENDS:
        for config in ["SecureBaseline", "STT", *SPT_CONFIGS]:
            for model in BOTH_MODELS:
                assert not _diverging(a, b, config, model, backend,
                                      vector_runs), (
                    f"{config}/{model.value} on {backend} leaked a "
                    f"speculatively-accessed secret")


def test_stt_scope_gap_on_nonspeculative_gadget(vector_runs):
    """STT leaks a non-speculatively accessed secret; SPT must not."""
    a, b = _planted("nonspeculative")
    for backend in BACKENDS:
        assert _diverging(a, b, "UnsafeBaseline", AttackModel.SPECTRE,
                          backend, vector_runs)
        assert _diverging(a, b, "STT", AttackModel.SPECTRE, backend,
                          vector_runs), (
            f"{backend}: the planted nonspec gadget must expose STT's "
            f"scope gap")
        for config in SPT_CONFIGS + ["SecureBaseline"]:
            for model in BOTH_MODELS:
                assert not _diverging(a, b, config, model, backend,
                                      vector_runs), (
                    f"{config}/{model.value} on {backend} leaked a "
                    f"non-speculatively accessed secret")


def test_expected_divergence_matrix():
    for exposure in ("speculative", "nonspeculative"):
        assert expected_to_diverge(exposure, "UnsafeBaseline")
    assert expected_to_diverge("nonspeculative", "STT")
    assert not expected_to_diverge("speculative", "STT")
    for config in SPT_CONFIGS + ["SecureBaseline"]:
        for exposure in ("speculative", "nonspeculative"):
            assert not expected_to_diverge(exposure, config)


def test_classify_flags_counterexamples():
    model = AttackModel.SPECTRE
    ok = classify("speculative", "SPT{Bwd,ShadowL1}", model, [])
    assert not ok.diverged and not ok.counterexample
    expected = classify("speculative", "UnsafeBaseline", model, ["load-line"])
    assert expected.diverged and expected.expected
    assert not expected.counterexample
    bad = classify("speculative", "SPT{Bwd,ShadowL1}", model, ["load-line"])
    assert bad.diverged and bad.counterexample and not bad.expected


def test_divergence_detail_shows_differing_events():
    a, b = _planted("speculative")
    detail = divergence_detail(a, b, "UnsafeBaseline", AttackModel.SPECTRE)
    assert detail.strip(), "a diverging pair must produce a visible diff"


def test_oracle_rejects_bad_exposure():
    with pytest.raises(ValueError):
        expected_to_diverge("banana", "STT")
