"""Regression tests pinning invariant edge cases the sanitizer surfaced.

The first test pins a real bug the checker found in the tree: a store
whose retire-time cache access stalled on exhausted MSHRs (no L1 fill
happens) still wrote its data taint into the shadow, creating a shadow
image of a line that was never installed.  Found by the full sanitizer
grid on perlbench under SPT{Bwd,ShadowL1}/spectre.

The remaining tests pin the trickiest clean-path edges at
``check_level=full``: store-to-load forwarding on a squashed wrong path,
and untaint ordering when a declassification burst overruns the width-3
broadcast bus.
"""

from __future__ import annotations

from repro.core.attack_model import AttackModel
from repro.core.shadow_l1 import ShadowMode
from repro.core.spt import SPTEngine
from repro.isa.assembler import assemble
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams


def full_params() -> MachineParams:
    return MachineParams(check_level="full")


def spt_shadow_engine() -> SPTEngine:
    return SPTEngine(AttackModel.FUTURISTIC, backward=True,
                     shadow=ShadowMode.L1)


def test_mshr_stalled_store_retire_keeps_shadow_resident():
    """An MSHR-stalled store retire must not forge a shadow line.

    A dependent ALU chain holds the store at the ROB head while twenty
    younger loads to distinct cold lines saturate the sixteen MSHRs, so
    the store's retire-time access stalls and no L1 fill happens.  Before
    the fix SPT still mirrored the store data's taint into the shadow and
    the very next cycle scan raised ``shadow-residency``; now the bytes
    keep their conservative default (absent line = tainted) until a real
    fill occurs.
    """
    engine = spt_shadow_engine()
    source = ["li s1, 0x4000", "li t0, 1"]
    source += ["addi t0, t0, 1"] * 40
    source.append("sd s1, 0(s1)")
    for i in range(20):
        source.append(f"ld a{i % 8}, {64 * (i + 1)}(s1)")
    source.append("halt")
    core = OoOCore(assemble("\n".join(source)), engine=engine,
                   params=full_params())
    sim = core.run(max_instructions=1000)
    assert sim.halted
    # The store's line never became resident at retire time, so its bytes
    # read back tainted (the safe direction) instead of shadow-untainted.
    checks = sim.metrics.groups["check"].groups["passed"].scalars
    assert checks.get("shadow-residency", 0) > 0


def test_wrong_path_store_forwarding_stays_clean():
    """Mispredicted-branch store forwarding: wrong-path stores feed
    wrong-path loads while the branch hangs on a DRAM miss, then the whole
    chain is squashed.  The full-level scans (squash-complete,
    lsq-forwarding, final-state) must all stay quiet."""
    program = assemble("""
        li s2, 0x100000
        li a0, 7
        ld t0, 0(s2)
        beq t0, zero, skip
        sd a0, 8(s2)
        ld a1, 8(s2)
        add a2, a1, a0
        skip:
        sd a0, 16(s2)
        ld a3, 16(s2)
        halt
    """)
    core = OoOCore(program, params=full_params())
    sim = core.run(max_instructions=1000)
    assert sim.halted
    assert core.n_mispredicts >= 1, "the wrong path was never entered"
    checks = sim.metrics.groups["check"].groups["passed"].scalars
    assert checks.get("squash-complete", 0) > 0
    assert checks.get("lsq-forwarding", 0) > 0


def test_untaint_burst_respects_broadcast_ordering():
    """A mass declassification (frontier sweep over eight stores with
    distinct tainted address registers) overruns the width-3 bus; the
    queue must drain in order across cycles without tripping
    broadcast-width or taint-monotonic."""
    source = ["li t1, 0x100000", "ld t2, 0(t1)", "bne t2, zero, out"]
    for reg in ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"):
        source.append(f"sd zero, 0({reg})")
    source.extend(["out:", "    halt"])
    engine = SPTEngine(AttackModel.SPECTRE, backward=True)
    core = OoOCore(assemble("\n".join(source)), engine=engine,
                   params=full_params())
    sim = core.run(max_instructions=1000)
    assert sim.halted
    # The burst was real: the bus stalled at least once with a backlog.
    assert engine.untaint.broadcast_stall_cycles >= 1
    checks = sim.metrics.groups["check"].groups["passed"].scalars
    assert checks.get("broadcast-width", 0) > 0
    assert checks.get("taint-monotonic", 0) > 0
