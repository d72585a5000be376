"""Unit tests for the sanitizer plumbing (clean paths, levels, metrics)."""

from __future__ import annotations

import pickle

import pytest

from repro.check import InvariantViolation, Sanitizer
from repro.check.invariants import CHECK_LEVELS, INVARIANTS
from repro.core.attack_model import AttackModel
from repro.core.shadow_l1 import ShadowMode
from repro.core.spt import SPTEngine
from repro.core.stt import STTEngine
from repro.isa.assembler import assemble
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams

PROGRAM = """
    li s2, 0x4000
    li t0, 0
    li t1, 6
loop:
    sd t0, 0(s2)
    ld a0, 0(s2)
    addi s2, s2, 8
    addi t0, t0, 1
    bne t0, t1, loop
    halt
"""


def run_at(level, engine=None):
    core = OoOCore(assemble(PROGRAM), engine=engine,
                   params=MachineParams(check_level=level))
    return core, core.run(max_instructions=5000)


def test_off_level_attaches_no_checker():
    core, sim = run_at("off")
    assert core.checker is None
    assert sim.halted
    assert "check" not in sim.metrics.groups


def test_commit_level_runs_lockstep_only():
    core, sim = run_at("commit")
    assert core.checker is not None and not core.checker.full
    check = sim.metrics.groups["check"]
    assert check.scalars["level"] == 1
    passed = check.groups["passed"].scalars
    assert passed["retire-order"] == sim.retired
    # Full-level scans did not run.
    assert "vp-frontier" not in passed
    assert check.scalars["total"] == sum(passed.values())


def test_full_level_covers_engine_invariants():
    engine = SPTEngine(AttackModel.FUTURISTIC, backward=True,
                       shadow=ShadowMode.L1)
    core, sim = run_at("full", engine=engine)
    passed = sim.metrics.groups["check"].groups["passed"].scalars
    for invariant in ("retire-order", "pc-sequence", "reg-equality",
                      "final-state", "rob-age-order", "vp-frontier",
                      "taint-init", "taint-monotonic", "broadcast-width",
                      "zero-reg", "shadow-residency", "stall-identity"):
        assert passed.get(invariant, 0) > 0, invariant


def test_stt_shadow_root_map_tracks_engine():
    """On clean runs the sanitizer's private YRoT map mirrors the engine's
    gating decisions — no false positives."""
    engine = STTEngine(AttackModel.FUTURISTIC)
    core, sim = run_at("full", engine=engine)
    assert sim.halted
    passed = sim.metrics.groups["check"].groups["passed"].scalars
    assert passed.get("gated-transmitter", 0) > 0


def test_invalid_level_rejected():
    with pytest.raises(ValueError):
        MachineParams(check_level="paranoid").validate()
    core, _ = run_at("off")
    with pytest.raises(ValueError):
        Sanitizer(core, "off")
    with pytest.raises(ValueError):
        Sanitizer(core, "bogus")


def test_checked_run_is_timing_neutral():
    """The sanitizer is passive: cycle-for-cycle identical schedules."""
    results = {}
    for level in CHECK_LEVELS:
        engine = SPTEngine(AttackModel.FUTURISTIC, backward=True)
        _, sim = run_at(level, engine=engine)
        results[level] = (sim.cycles, sim.retired)
    assert results["off"] == results["commit"] == results["full"]


def test_violation_pickles_across_process_boundary():
    """ProcessPoolExecutor transports violations by pickling."""
    violation = InvariantViolation(
        "vp-frontier", 123, "frontier disagreement",
        inst="#7 ld x13, 0(x12)", window=["cycle 120: retire #5"])
    clone = pickle.loads(pickle.dumps(violation))
    assert isinstance(clone, InvariantViolation)
    assert clone.invariant == "vp-frontier"
    assert clone.cycle == 123
    assert "frontier disagreement" in str(clone)
    assert "ld x13" in str(clone)


def test_invariant_registry_is_consistent():
    assert CHECK_LEVELS == ("off", "commit", "full")
    commit_ids = {spec.id for spec in INVARIANTS.values()
                  if spec.level == "commit"}
    assert commit_ids and commit_ids < set(INVARIANTS)
    for spec in INVARIANTS.values():
        assert spec.level in ("commit", "full")
        assert spec.section and spec.description
