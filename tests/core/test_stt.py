"""Behavioural tests for the STT engine."""

from repro.core.attack_model import AttackModel
from repro.core.stt import STTEngine
from repro.isa.assembler import assemble
from repro.pipeline.core import OoOCore

from tests.conftest import BOTH_MODELS, assert_matches_interpreter

import pytest


def run_with_stt(source, model=AttackModel.FUTURISTIC):
    engine = STTEngine(model)
    sim = assert_matches_interpreter(assemble(source), engine=engine)
    return sim, engine


DEPENDENT_LOAD = """
    li s2, 0x4000
    sd s2, 0x4000(zero)
    ld a0, 0x4000(zero)
    ld a1, 0(a0)
    halt
"""


@pytest.mark.parametrize("model", BOTH_MODELS)
def test_dependent_load_is_delayed(model):
    engine = STTEngine(model)
    sim = assert_matches_interpreter(assemble(DEPENDENT_LOAD), engine=engine)
    unsafe = OoOCore(assemble(DEPENDENT_LOAD)).run()
    assert sim.cycles >= unsafe.cycles


def test_load_output_is_tainted_until_vp():
    # A transmitter whose address comes from a load may not execute before
    # that load reaches the VP; with the futuristic model and a long pre-VP
    # shadow, the delay is visible in cycles.
    slow = """
        li s2, 0x4000
        li t0, 3
        mul t1, t0, t0
        mul t1, t1, t1
        mul t1, t1, t1
        ld a0, 0x4000(zero)
        ld a1, 0(a0)
        halt
    """
    stt, _ = run_with_stt(slow)
    unsafe = OoOCore(assemble(slow)).run()
    assert stt.cycles >= unsafe.cycles


def test_non_speculative_data_is_not_protected():
    # STT's scope gap: data in a register that was loaded and retired long
    # ago is s-untainted, so a transmitter using it is never delayed.
    source = """
        sd zero, 0x4000(zero)
        ld s2, 0x4000(zero)
        li t0, 100
    pad:
        addi t0, t0, -1
        bne t0, zero, pad
        ld a0, 0x100(s2)
        halt
    """
    stt, engine = run_with_stt(source)
    # Absent when never bumped; get() reads that as 0.
    assert stt.metrics.group("engine").get("delayed_transmitter_checks") < 5


def test_alu_results_propagate_taint():
    # Taint flows through arithmetic: load -> add -> load address.
    source = """
        li s2, 0x4000
        sd zero, 0(s2)
        ld a0, 0(s2)
        add a1, a0, s2
        ld a2, 0(a1)
        halt
    """
    sim, engine = run_with_stt(source)
    assert sim.halted


def test_branch_resolution_delayed_on_tainted_predicate():
    source = """
        li s2, 0x4000
        sd zero, 0(s2)
        ld a0, 0(s2)
        beq a0, zero, out
        li a1, 1
    out:
        halt
    """
    stt, _ = run_with_stt(source)
    unsafe = OoOCore(assemble(source)).run()
    assert stt.cycles >= unsafe.cycles


@pytest.mark.parametrize("model", BOTH_MODELS)
def test_architectural_equivalence_under_stt(model):
    from repro.workloads.random_programs import random_program
    for seed in (7000, 7001, 7002):
        assert_matches_interpreter(random_program(seed),
                                   engine=STTEngine(model))


def test_engine_name_and_scope_flags():
    engine = STTEngine(AttackModel.SPECTRE)
    assert engine.name == "STT"
    assert engine.protects_speculative_data
    assert not engine.protects_nonspeculative_secrets
