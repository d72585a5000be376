"""Behavioural tests for the out-of-order core."""

from repro.isa.assembler import assemble
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams

from tests.conftest import assert_matches_interpreter


def test_dependent_chain():
    sim = assert_matches_interpreter(assemble("""
        li a0, 1
        add a1, a0, a0
        add a2, a1, a1
        add a3, a2, a2
        halt
    """))
    assert sim.reg(13) == 8


def test_independent_ops_overlap():
    # 8 independent adds should take far fewer cycles than 8 dependent ones.
    independent = assemble("\n".join(
        [f"li a{i}, {i}" for i in range(6)]
        + [f"addi a{i}, a{i}, 1" for i in range(6)] + ["halt"]))
    dependent = assemble("li a0, 0\n" + "\n".join(
        ["addi a0, a0, 1"] * 11) + "\nhalt")
    sim_ind = OoOCore(independent).run()
    sim_dep = OoOCore(dependent).run()
    assert sim_ind.retired == sim_dep.retired == 13
    assert sim_ind.cycles < sim_dep.cycles


def test_store_to_load_forwarding_exact_match():
    sim = assert_matches_interpreter(assemble("""
        li a0, 77
        sd a0, 0x100(zero)
        ld a1, 0x100(zero)
        halt
    """))
    assert sim.reg(11) == 77
    assert sim.metrics.flatten()["memory.loads_forwarded"] >= 1


def test_partial_overlap_store_blocks_until_retire():
    sim = assert_matches_interpreter(assemble("""
        li a0, -1
        sd a0, 0x100(zero)
        li a1, 0
        sb a1, 0x104(zero)
        ld a2, 0x100(zero)
        halt
    """))
    assert sim.reg(12) == 0xFFFFFF00FFFFFFFF


def test_loop_with_mispredictions_recovers():
    sim = assert_matches_interpreter(assemble("""
        li t0, 20
        li a0, 0
    loop:
        addi a0, a0, 3
        addi t0, t0, -1
        bne t0, zero, loop
        halt
    """))
    assert sim.reg(10) == 60
    # At least the loop exit.
    assert sim.metrics.flatten()["speculation.mispredicts"] >= 1


def test_wrong_path_execution_touches_cache():
    # A mispredicted branch transiently executes a load; the cache access
    # happens even though the load squashes (the Spectre channel).
    program = assemble("""
        li t0, 1
        li t1, 1
        li s2, 0x4000
        mul t2, t0, t1
        mul t2, t2, t1
        mul t2, t2, t1
        mul t2, t2, t1
        beq t2, t1, skip      # taken, but predicted not-taken (cold counter)
        ld a0, 0(s2)
        ld a0, 0(s2)
    skip:
        halt
    """)
    sim = OoOCore(program).run()
    assert sim.halted
    assert sim.metrics.flatten()["speculation.mispredicts"] >= 1
    assert 0x4000 in sim.observer.lines_touched()   # transient access visible


def test_jalr_untrained_btb_stalls_then_resolves():
    sim = assert_matches_interpreter(assemble("""
        li t0, target
        jalr zero, t0, 0
        halt
    target:
        li a0, 5
        halt
    """))
    assert sim.reg(10) == 5


def test_call_return_with_ras():
    sim = assert_matches_interpreter(assemble("""
        li a0, 0
        jal ra, fn
        jal ra, fn
        jal ra, fn
        halt
    fn:
        addi a0, a0, 1
        jalr zero, ra, 0
    """))
    assert sim.reg(10) == 3


def test_halt_on_wrong_path_is_not_fatal():
    sim = assert_matches_interpreter(assemble("""
        li t0, 5
        li t1, 5
        mul t2, t0, t1
        mul t2, t2, t2
        bne t0, t1, bad       # not taken, but may mispredict via aliasing
        li a0, 1
        halt
    bad:
        halt
    """))
    assert sim.reg(10) == 1


def test_rob_capacity_limits_inflight():
    params = MachineParams(rob_entries=8, rs_entries=8, num_phys_regs=48,
                           lq_entries=4, sq_entries=4)
    sim = assert_matches_interpreter(
        assemble("li a0, 0\n" + "\n".join(["addi a0, a0, 1"] * 40) + "\nhalt"),
        params=params)
    assert sim.reg(10) == 40


def test_instruction_budget_stops_run():
    program = assemble("loop: addi a0, a0, 1\njal zero, loop\nhalt")
    sim = OoOCore(program).run(max_instructions=50)
    assert not sim.halted
    assert sim.retired >= 50


def test_ipc_reported():
    sim = OoOCore(assemble("li a0, 1\nhalt")).run()
    assert 0 < sim.ipc <= 8


def test_stats_property_serves_the_benchmark():
    """``perfbench`` reads ``SimResult.stats["fetched"]``; the read-only
    property must keep returning the tree's value under that name."""
    sim = OoOCore(assemble("li a0, 3\nloop:\naddi a0, a0, -1\n"
                           "bne a0, zero, loop\nhalt")).run()
    fetched = sim.metrics.group("frontend").get("fetched")
    assert fetched > sim.retired
    assert sim.stats["fetched"] == fetched
