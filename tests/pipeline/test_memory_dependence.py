"""Memory-dependence speculation tests (Section 6.7's companion mechanism)."""

import pytest

from repro.isa.assembler import assemble
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams
from repro.workloads.random_programs import RandomProgramConfig, random_program

from tests.conftest import assert_matches_interpreter


MDS = MachineParams(memory_dependence_speculation=True)

# A store whose address resolves late (mul chain) aliasing a younger load:
# with speculation the load issues early with stale data and must be
# squashed and re-executed when the store's address resolves.
VIOLATION_PROGRAM = """
    li s2, 0x4000
    li a0, 111
    sd a0, 0(s2)          # architectural initial value
    li t0, 3
    mul t1, t0, t0
    mul t1, t1, t1
    mul t1, t1, t1
    mul t1, t1, t1
    andi t1, t1, 0
    add t1, t1, s2        # t1 = 0x4000, computed slowly
    li a1, 222
    sd a1, 0(t1)          # store with late-resolving address
    ld a2, 0(s2)          # younger aliasing load
    halt
"""


def test_violation_is_detected_and_corrected():
    sim = assert_matches_interpreter(assemble(VIOLATION_PROGRAM), params=MDS)
    assert sim.reg(12) == 222                      # architecturally correct
    assert sim.metrics.flatten()["speculation.mem_order_violations"] >= 1


def test_conservative_mode_has_no_violations():
    sim = assert_matches_interpreter(assemble(VIOLATION_PROGRAM))
    assert sim.reg(12) == 222
    assert sim.metrics.flatten()["speculation.mem_order_violations"] == 0


def test_speculation_speeds_up_independent_loads():
    # A late-resolving store address that does NOT alias: with speculation
    # the younger load does not wait for it.
    source = """
        li s2, 0x4000
        li s3, 0x8000
        li a0, 7
        sd a0, 0(s3)
        ld a3, 0(s3)
        li t0, 3
        mul t1, a3, t0
        mul t1, t1, t1
        mul t1, t1, t1
        mul t1, t1, t1
        andi t1, t1, 0xFF8
        add t1, t1, s3
        sd a0, 0(t1)      # slow store, different region
        ld a2, 0(s2)      # independent load
        ld a4, 0(a2)
        halt
    """
    fast = OoOCore(assemble(source), params=MDS).run()
    slow = OoOCore(assemble(source)).run()
    assert fast.cycles <= slow.cycles


@pytest.mark.parametrize("seed", range(10))
def test_differential_with_speculation(seed):
    config = RandomProgramConfig(blocks=14, mem_probability=0.7)
    assert_matches_interpreter(random_program(8000 + seed, config),
                               params=MachineParams(
                                   memory_dependence_speculation=True))


def test_secure_engines_force_conservative_disambiguation():
    from repro.core.attack_model import AttackModel
    from repro.core.spt import SPTEngine
    program = assemble(VIOLATION_PROGRAM)
    engine = SPTEngine(AttackModel.FUTURISTIC)
    sim = OoOCore(program, engine=engine, params=MDS).run()
    # The engine's scope disables the speculative issue path entirely, so a
    # violation squash (an unprotected implicit channel) can never occur.
    assert sim.metrics.flatten()["speculation.mem_order_violations"] == 0
    assert sim.reg(12) == 222
