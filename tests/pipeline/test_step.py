"""A core stepped by hand runs the cycle body ``run`` loops.

So it raises at the cycle cap and on deadlock at the very cycle ``run``
raises, and a full-level sanitizer compares the final state once, on the
cycle HALT retires.
"""

import pytest

from repro.check.cli import check_counts
from repro.isa.assembler import assemble
from repro.pipeline.core import OoOCore, SimulationError
from repro.pipeline.params import MachineParams
from repro.workloads.registry import get as get_workload

from tests.conftest import NeverIssue


def raise_point(advance, core: OoOCore) -> tuple:
    """``(cycle, message)`` where ``advance()`` raises SimulationError."""
    with pytest.raises(SimulationError) as exc_info:
        advance()
    return core.cycle, str(exc_info.value)


def step_for(core: OoOCore, cycles: int):
    """A callable that steps ``core`` by hand ``cycles`` times."""
    def advance():
        for _ in range(cycles):
            core.step()
    return advance


def test_stepped_core_stops_at_the_cycle_cap_as_run_does():
    program = get_workload("mcf").program(1)
    params = MachineParams(max_cycles=400)
    ran = OoOCore(program, params=params)
    stepped = OoOCore(program, params=params)
    expected = raise_point(lambda: ran.run(max_instructions=10_000_000), ran)
    assert expected == (400, "mcf: exceeded max_cycles")
    assert raise_point(step_for(stepped, 1_000), stepped) == expected


def test_stepped_core_trips_the_deadlock_detector_as_run_does():
    program = assemble("""
        ld a0, 0x4000(zero)
        halt
    """)
    ran = OoOCore(program, engine=NeverIssue())
    stepped = OoOCore(program, engine=NeverIssue())
    cycle, message = expected = raise_point(ran.run, ran)
    assert "no retirement for 100k cycles" in message
    assert raise_point(step_for(stepped, cycle + 10), stepped) == expected


def test_stepped_core_checks_the_final_state_once():
    program = assemble("""
        li t0, 3
    loop:
        addi t0, t0, -1
        bne t0, zero, loop
        sd t0, 0x100(zero)
        halt
    """)
    full = MachineParams(check_level="full")
    ran = OoOCore(program, params=full).run()
    stepped = OoOCore(program, params=full)
    while not stepped.halted:
        stepped.step()
    for _ in range(5):            # stepping past HALT checks nothing more
        stepped.step()
    counts = check_counts(stepped.build_metrics())
    assert counts["final-state"] == 1
    assert counts["final-state"] == check_counts(ran.metrics)["final-state"]
