"""Integration tests: SPT's memory-taint mechanisms on whole programs."""

import pytest

from repro.core.attack_model import AttackModel
from repro.core.events import UntaintKind
from repro.core.shadow_l1 import ShadowMode
from repro.core.spt import SPTEngine
from repro.isa.assembler import assemble

from tests.conftest import BOTH_MODELS, assert_matches_interpreter


def run(source, model=AttackModel.FUTURISTIC, **kwargs):
    engine = SPTEngine(model, **kwargs)
    sim = assert_matches_interpreter(assemble(source), engine=engine)
    return sim, engine


SPILL_RELOAD = """
    li s2, 0x4000
    li sp, 0x8000
    sd s2, 0(sp)          # spill a public pointer
    li t0, 40
pad:
    addi t0, t0, -1
    bne t0, zero, pad
    ld a0, 0(sp)          # reload it (far from the store: reads the L1D)
    ld a1, 0(a0)          # use it as an address
    halt
"""


def test_shadow_l1_keeps_spilled_pointers_public():
    with_shadow, engine = run(SPILL_RELOAD, shadow=ShadowMode.L1)
    without, _ = run(SPILL_RELOAD, shadow=ShadowMode.NONE)
    assert engine.shadow.stores_cleared >= 1
    assert with_shadow.metrics.flatten()["protection.transmitters_delayed_cycles"] <= \
        without.metrics.flatten()["protection.transmitters_delayed_cycles"]


def test_shadow_l1_untaint_event_on_reload():
    _, engine = run(SPILL_RELOAD, shadow=ShadowMode.L1)
    kinds = engine.untaint.as_dict()
    assert kinds.get(UntaintKind.SHADOW_L1.value, 0) >= 1


def test_shadow_mem_event_kind():
    _, engine = run(SPILL_RELOAD, shadow=ShadowMode.FULL_MEMORY)
    kinds = engine.untaint.as_dict()
    assert kinds.get(UntaintKind.SHADOW_MEM.value, 0) >= 1


def test_tainted_store_data_keeps_bytes_tainted():
    # Data loaded from cold memory is tainted; storing it and reloading it
    # must keep the taint (no laundering through the cache).
    source = """
        li s2, 0x4000
        li sp, 0x8000
        ld a0, 0(s2)          # tainted data
        sd a0, 0(sp)
        li t0, 40
    pad:
        addi t0, t0, -1
        bne t0, zero, pad
        ld a1, 0(sp)          # reload: must still be tainted
        ld a2, 0(a1)          # so this transmitter is delayed
        halt
    """
    sim, engine = run(source, shadow=ShadowMode.L1)
    assert sim.metrics.flatten()["protection.transmitters_delayed_cycles"] > 0


def test_stl_forwarding_propagates_untaint_when_public():
    # Store with public data forwards to a nearby load: STLPublic holds (all
    # addresses public), so the load's output untaints via the STL rule.
    # No transmitter consumes a1 here: otherwise that transmitter's VP
    # declassification would untaint a1 before the STL rule gets a chance.
    source = """
        li s2, 0x4000
        li a0, 55
        sd a0, 0(s2)
        ld a1, 0(s2)          # forwarded from the store
        add a2, a1, a1
        halt
    """
    sim, engine = run(source, model=AttackModel.SPECTRE)
    kinds = engine.untaint.as_dict()
    assert kinds.get(UntaintKind.STL_FORWARD.value, 0) >= 1
    assert sim.reg(11) == 55


def test_stl_blocked_while_store_address_tainted():
    # The forwarding store's own address comes from a tainted load, so
    # STLPublic cannot hold before declassification; untaint must wait.
    source = """
        li s2, 0x4000
        ld a3, 0(s2)          # tainted address material
        li a0, 9
        sd a0, 0(a3)          # store with tainted address
        ld a1, 0(a3)          # would forward
        halt
    """
    sim, engine = run(source, model=AttackModel.FUTURISTIC)
    assert sim.halted         # progresses via VP declassification


def test_eviction_retaints_under_shadow_l1_but_not_shadow_mem():
    # Write a public value, then sweep enough lines through the same L1 set
    # to evict it; the reload is tainted under ShadowL1, public under
    # ShadowMem.
    source = """
        li s2, 0x8000
        li a0, 7
        sd a0, 0(s2)
        li t0, 0x10000
        li t1, 12
    sweep:
        ld a1, 0(t0)
        addi t0, t0, 0x8000   # same L1 set (32KB stride), different lines
        addi t1, t1, -1
        bne t1, zero, sweep
        ld a2, 0(s2)          # reload after eviction
        ld a3, 0(a2)
        halt
    """
    l1_sim, l1_engine = run(source, shadow=ShadowMode.L1)
    mem_sim, _ = run(source, shadow=ShadowMode.FULL_MEMORY)
    assert mem_sim.metrics.flatten()["protection.transmitters_delayed_cycles"] <= \
        l1_sim.metrics.flatten()["protection.transmitters_delayed_cycles"]


@pytest.mark.parametrize("model", BOTH_MODELS)
def test_ideal_never_slower_than_width_limited(model):
    source = SPILL_RELOAD
    limited, _ = run(source, model=model, shadow=ShadowMode.FULL_MEMORY)
    ideal, _ = run(source, model=model, ideal=True,
                   shadow=ShadowMode.FULL_MEMORY)
    assert ideal.cycles <= limited.cycles + 2


def test_incremental_configs_weakly_improve():
    # Fwd -> Bwd -> ShadowL1 -> ShadowMem must not regress on a workload
    # exercising all mechanisms.
    source = SPILL_RELOAD
    fwd, _ = run(source, backward=False, shadow=ShadowMode.NONE)
    bwd, _ = run(source, backward=True, shadow=ShadowMode.NONE)
    sl1, _ = run(source, backward=True, shadow=ShadowMode.L1)
    smem, _ = run(source, backward=True, shadow=ShadowMode.FULL_MEMORY)
    assert bwd.cycles <= fwd.cycles + 2
    assert sl1.cycles <= bwd.cycles + 2
    assert smem.cycles <= sl1.cycles + 2
