"""End-to-end verification of the named targets — the PR's acceptance bar.

The three constant-time crypto kernels must verify *leak-free* at the
default bounds (a complete exploration, so the verdict is a proof up to
``spec_window``/``spec_depth``), and both attack gadgets must produce a
symbolic leak witness that names the responsible secret bytes and comes
with a confirmed distinguishing secret pair.
"""

import pytest

from repro.verify import TARGETS, reflexive_check, verify_target
from repro.verify.targets import make_symbolic_memory

KERNELS = ["chacha20", "aes-bitslice", "djbsort"]
GADGETS = ["spectre-pht", "nonspec-secret"]


def test_target_registry_is_complete():
    assert set(TARGETS) == set(KERNELS) | set(GADGETS)
    for name in KERNELS:
        assert TARGETS[name].expected == "safe"
    for name in GADGETS:
        assert TARGETS[name].expected == "leak"


@pytest.mark.parametrize("name", KERNELS)
def test_constant_time_kernel_verifies_safe(name):
    result = verify_target(name)
    assert result.verdict == "safe", \
        f"{name} produced witnesses: {[w.to_json() for w in result.witnesses]}"
    assert result.complete and result.halted
    assert result.stats.retired > 0


@pytest.mark.parametrize("name", GADGETS)
def test_attack_gadget_produces_confirmed_witness(name):
    result = verify_target(name)
    assert result.verdict == "leak"
    confirmed = [w for w in result.witnesses if w.confirmed]
    assert confirmed, "leak verdict must come with a confirmed witness"
    witness = confirmed[0]
    # Both gadgets leak exactly their single secret byte, transiently.
    assert witness.secret == (0,)
    assert witness.depth > 0
    assert witness.secret_a != witness.secret_b
    assert witness.value_a != witness.value_b


def test_spectre_gadget_is_safe_without_speculation():
    """spec_depth=0 turns off transient exploration: the gadget's
    *committed* path is constant-time, so the leak must disappear —
    pinning that the witness really is speculative."""
    result = verify_target("spectre-pht", spec_depth=0)
    assert result.verdict == "safe" and result.complete


@pytest.mark.parametrize("bound", ["spec_window", "spec_depth"])
def test_negative_speculation_bound_is_rejected(bound):
    # A negative bound explores no transient path, so the gadget would
    # read as safe.
    with pytest.raises(ValueError, match=bound):
        verify_target("spectre-pht", **{bound: -1})


@pytest.mark.parametrize("name", KERNELS + GADGETS)
def test_reflexive_self_composition_is_safe(name):
    """With the secret concretised (both runs identical) nothing may
    diverge — not even for the gadgets."""
    target = TARGETS[name]
    program, layout = target.build(1)
    result = reflexive_check(program, make_symbolic_memory(program, layout))
    assert result.verdict == "safe", name
    assert result.complete


def test_witness_report_is_json_serialisable():
    import json
    result = verify_target("spectre-pht")
    blob = json.dumps(result.to_json())
    assert "spectre" in blob or "witness" in blob or "leak" in blob
