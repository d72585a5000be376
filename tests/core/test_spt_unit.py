"""Unit-level tests for the SPT engine's taint machinery."""

import pytest

from repro.core.attack_model import AttackModel
from repro.core.events import UntaintKind
from repro.core.shadow_l1 import ShadowMode
from repro.core.spt import SPTEngine
from repro.isa.assembler import assemble
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams

from tests.conftest import assert_matches_interpreter


def run_spt(source, model=AttackModel.FUTURISTIC, **engine_kwargs):
    engine = SPTEngine(model, **engine_kwargs)
    sim = assert_matches_interpreter(assemble(source), engine=engine)
    return sim, engine


def test_config_names_match_table2():
    assert SPTEngine(AttackModel.SPECTRE, backward=False,
                     shadow=ShadowMode.NONE).name == "SPT{Fwd,NoShadowL1}"
    assert SPTEngine(AttackModel.SPECTRE).name == "SPT{Bwd,ShadowL1}"
    assert SPTEngine(AttackModel.SPECTRE, shadow=ShadowMode.FULL_MEMORY
                     ).name == "SPT{Bwd,ShadowMem}"
    assert SPTEngine(AttackModel.SPECTRE, ideal=True,
                     shadow=ShadowMode.FULL_MEMORY
                     ).name == "SPT{Ideal,ShadowMem}"


def test_everything_starts_tainted():
    # A load through an architectural register that was never written is
    # delayed: all registers start tainted (Section 6.3).  x0 is the
    # exception (it is architecturally zero).
    sim, engine = run_spt("ld a0, 0x4000(zero)\nhalt")
    assert sim.halted
    assert not engine.taint[0]            # phys 0 backs x0


def test_load_immediate_output_untainted():
    # Section 6.5: LI results are inferable from the ROB alone.
    sim, engine = run_spt("""
        li s2, 0x4000
        ld a0, 0(s2)
        halt
    """)
    # The load's address operand was untainted, so the load was never
    # delayed by the protection policy.
    assert sim.metrics.flatten()["protection.transmitters_delayed_cycles"] == 0


def test_vp_declassification_of_transmitter_operand():
    sim, engine = run_spt("""
        ld a0, 0x4000(zero)
        ld a1, 0(a0)
        halt
    """)
    kinds = engine.untaint.as_dict()
    assert kinds.get(UntaintKind.VP_TRANSMITTER.value, 0) >= 1


def test_forward_untaint_through_alu():
    # a0 (load output, tainted) feeds an ADD; once a0 is declassified by the
    # second load's VP, the ADD's output is forward-untainted.
    # Spectre model: the VP frontier is not blocked by the incomplete load,
    # so the second load declassifies a0 while the adds are still in flight
    # (the paper notes the Spectre model gives propagation more room, 9.3).
    sim, engine = run_spt("""
        ld a0, 0x4000(zero)
        add a1, a0, a0
        add a2, a1, a1
        ld a3, 0(a0)
        add a4, a1, a2
        halt
    """, model=AttackModel.SPECTRE)
    kinds = engine.untaint.as_dict()
    assert kinds.get(UntaintKind.FORWARD.value, 0) >= 1


def test_backward_untaint_through_invertible_add():
    # addr = offset + base; declassifying addr with base public infers the
    # loaded offset (the mcf pattern, Section 6.6 rule 2).
    source = """
        li s2, 0x4000
        ld a0, 0(s2)
        add a1, a0, s2
        mul t0, a1, a1
        ld a2, 0(a1)
        halt
    """
    sim, engine = run_spt(source, model=AttackModel.SPECTRE)
    kinds = engine.untaint.as_dict()
    assert kinds.get(UntaintKind.BACKWARD.value, 0) >= 1


def test_backward_disabled_in_fwd_config():
    source = """
        li s2, 0x4000
        ld a0, 0(s2)
        add a1, a0, s2
        ld a2, 0(a1)
        halt
    """
    _, engine = run_spt(source, model=AttackModel.SPECTRE, backward=False)
    assert engine.untaint.as_dict().get(UntaintKind.BACKWARD.value, 0) == 0


def test_vp_branch_declassification():
    sim, engine = run_spt("""
        ld a0, 0x4000(zero)
        beq a0, zero, out
        li a1, 1
    out:
        halt
    """)
    kinds = engine.untaint.as_dict()
    assert kinds.get(UntaintKind.VP_BRANCH.value, 0) >= 1


def test_tainted_address_transmitter_is_delayed():
    sim, engine = run_spt("""
        ld a0, 0x4000(zero)
        ld a1, 0(a0)
        halt
    """)
    assert sim.metrics.flatten()["protection.transmitters_delayed_cycles"] > 0


def test_untainted_chain_is_never_delayed():
    sim, engine = run_spt("""
        li s2, 0x4000
        li t0, 8
        add s3, s2, t0
        ld a0, 0(s3)
        sd a0, 8(s3)
        halt
    """)
    assert sim.metrics.flatten()["protection.transmitters_delayed_cycles"] == 0


def test_broadcast_width_limits_untaints_per_cycle():
    params = MachineParams(untaint_broadcast_width=1)
    engine = SPTEngine(AttackModel.FUTURISTIC)
    program = assemble("""
        ld a0, 0x4000(zero)
        add a1, a0, a0
        add a2, a0, a0
        add a3, a0, a0
        add a4, a0, a0
        ld a5, 0(a0)
        halt
    """)
    sim = OoOCore(program, engine=engine, params=params).run()
    assert sim.halted
    assert max(engine.untaint.untaints_per_cycle or {0: 0}) <= 1


def test_ideal_mode_untaints_unbounded_per_cycle():
    engine = SPTEngine(AttackModel.SPECTRE, ideal=True,
                       shadow=ShadowMode.FULL_MEMORY)
    program = assemble("""
        ld a0, 0x4000(zero)
        add a1, a0, a0
        add a2, a0, a0
        add a3, a0, a0
        add a4, a0, a0
        ld a5, 0(a0)
        halt
    """)
    sim = OoOCore(program, engine=engine).run()
    assert sim.halted
    assert engine.untaint.total >= 4


def test_taint_is_monotone_globally():
    # Once the global map untaints a register it stays untainted until the
    # register is re-allocated by rename.
    engine = SPTEngine(AttackModel.FUTURISTIC)
    program = assemble("""
        ld a0, 0x4000(zero)
        ld a1, 0(a0)
        add a2, a0, a1
        halt
    """)
    core = OoOCore(program, engine=engine)
    untainted_seen = set()
    while not core.halted and core.cycle < 10_000:
        core.step()
        for preg in untainted_seen:
            assert not engine.taint[preg]
        allocated = {di.prd for di in core.in_flight() if di.prd >= 0}
        for preg, tainted in enumerate(engine.taint):
            if not tainted and preg in allocated:
                untainted_seen.add(preg)
        # Registers leaving the window may be recycled; track live only.
        untainted_seen &= allocated
    assert core.halted


def test_squash_drops_pending_broadcasts():
    # A wrong-path instruction's pending untaint must not survive into the
    # recycled physical register.  Exercised by a misprediction-heavy run.
    engine = SPTEngine(AttackModel.SPECTRE)
    program = assemble("""
        li t0, 10
        li s2, 0x4000
        li a0, 0
    loop:
        ld a1, 0(s2)
        add a2, a1, s2
        addi a0, a0, 1
        addi t0, t0, -1
        bne t0, zero, loop
        halt
    """)
    sim = assert_matches_interpreter(program, engine=engine)
    assert sim.reg(10) == 10


@pytest.mark.parametrize("shadow", list(ShadowMode))
def test_all_shadow_modes_run(shadow):
    sim, _ = run_spt("""
        li s2, 0x4000
        li a0, 123
        sd a0, 0(s2)
        ld a1, 0(s2)
        halt
    """, shadow=shadow)
    assert sim.reg(11) == 123
