"""Tests for the pipeline tracer."""

import pytest

from repro.check.cli import check_counts
from repro.core.attack_model import AttackModel
from repro.core.spt import SPTEngine
from repro.isa.assembler import assemble
from repro.pipeline.trace import PipelineTracer, trace_program
from repro.pipeline.core import OoOCore, SimulationError
from repro.pipeline.params import MachineParams
from repro.workloads.registry import get as get_workload

from tests.conftest import NeverIssue


SIMPLE = """
    li a0, 1
    addi a1, a0, 2
    sd a1, 0x100(zero)
    ld a2, 0x100(zero)
    halt
"""


def test_trace_captures_all_retired_instructions():
    tracer = trace_program(assemble(SIMPLE))
    retired = [e for e in tracer.entries if not e.squashed and e.retire >= 0]
    assert len(retired) == 5


def test_lifecycle_ordering():
    tracer = trace_program(assemble(SIMPLE))
    for entry in tracer.entries:
        if entry.retire >= 0:
            assert entry.fetch <= entry.dispatch <= entry.retire
            if entry.issue >= 0:
                assert entry.dispatch <= entry.issue
            if entry.complete >= 0 and entry.issue >= 0:
                assert entry.issue <= entry.complete <= entry.retire


def test_render_contains_stage_markers():
    tracer = trace_program(assemble(SIMPLE))
    text = tracer.render()
    assert "F" in text and "D" in text and "R" in text
    assert "li x10, 1" in text


def test_traced_run_ends_the_way_run_does():
    """A traced full-level run gets the final-state comparison at HALT,
    and so every check a plain ``run()`` evaluates."""
    program = assemble("""
        li t0, 3
    loop:
        addi t0, t0, -1
        bne t0, zero, loop
        halt
    """)
    run = OoOCore(program, params=MachineParams(check_level="full")).run()
    tracer = trace_program(program, params=MachineParams(check_level="full"))
    assert tracer.core.halted
    counts = check_counts(tracer.core.build_metrics())
    assert counts["final-state"] == 1
    assert counts == check_counts(run.metrics)


def raised(run) -> str:
    """The message of the SimulationError ``run()`` raises."""
    with pytest.raises(SimulationError) as exc_info:
        run()
    return str(exc_info.value)


def test_traced_run_stops_at_the_cycle_cap_as_run_does():
    program = get_workload("mcf").program(1)
    plain = OoOCore(program, params=MachineParams(max_cycles=400))
    tracer = PipelineTracer(OoOCore(program,
                                    params=MachineParams(max_cycles=400)))
    message = raised(lambda: plain.run(max_instructions=10_000_000))
    assert message == "mcf: exceeded max_cycles"
    assert raised(lambda: tracer.run(max_instructions=10_000_000)) == message
    assert tracer.core.cycle == plain.cycle == 400
    assert tracer.entries        # harvested up to the raise


def test_traced_run_trips_the_deadlock_detector_as_run_does():
    program = assemble("""
        ld a0, 0x4000(zero)
        halt
    """)
    plain = OoOCore(program, engine=NeverIssue())
    tracer = PipelineTracer(OoOCore(program, engine=NeverIssue()))
    message = raised(plain.run)
    assert "no retirement for 100k cycles" in message
    assert raised(tracer.run) == message
    assert tracer.core.cycle == plain.cycle


def test_squashed_wrong_path_instructions_are_traced():
    source = """
        li t0, 5
        li t1, 0
    loop:
        addi t1, t1, 1
        addi t0, t0, -1
        bne t0, zero, loop
        halt
    """
    tracer = trace_program(assemble(source))
    assert any(e.squashed for e in tracer.entries)
    text = tracer.render(count=100)
    assert "X" in text


def test_delayed_transmitters_visible_under_spt():
    source = """
        ld a0, 0x4000(zero)
        ld a1, 0(a0)
        halt
    """
    unprotected = trace_program(assemble(source))
    protected = trace_program(assemble(source),
                              engine=SPTEngine(AttackModel.FUTURISTIC))
    assert len(protected.delayed_transmitters(threshold=3)) >= \
        len(unprotected.delayed_transmitters(threshold=3))


def test_entry_cap():
    tracer = PipelineTracer(OoOCore(assemble(SIMPLE)), max_entries=2)
    tracer.run()
    assert len(tracer.entries) <= 3      # cap is approximate per harvest


def test_render_empty():
    tracer = PipelineTracer(OoOCore(assemble(SIMPLE)))
    assert "no trace entries" in tracer.render()


def test_beyond_window_marker():
    """Events past the rendered window collapse onto a '>' in the last column."""
    tracer = trace_program(assemble(SIMPLE))
    narrow = tracer.render(width=4)
    lanes = [line.split()[-1] for line in narrow.splitlines()[1:]]
    assert any(lane.endswith(">") for lane in lanes)
    # A window wide enough for the whole run renders no overflow marker.
    wide = tracer.render(width=512)
    assert ">" not in wide.split("pipeline", 1)[1]


def test_issue_delay_of_unissued_entry_is_zero():
    entry = PipelineTracer(OoOCore(assemble(SIMPLE))).entries
    assert entry == []
    from repro.pipeline.trace import TraceEntry
    never_issued = TraceEntry(seq=0, pc=0, text="ld", fetch=0, dispatch=1,
                              issue=-1, complete=-1, retire=-1, squashed=False)
    assert never_issued.issue_delay == 0


def test_delayed_transmitters_threshold_monotonic():
    source = """
        ld a0, 0x4000(zero)
        ld a1, 0(a0)
        halt
    """
    tracer = trace_program(assemble(source),
                           engine=SPTEngine(AttackModel.FUTURISTIC))
    loose = tracer.delayed_transmitters(threshold=0)
    tight = tracer.delayed_transmitters(threshold=10_000)
    assert len(loose) >= len(tracer.delayed_transmitters()) >= len(tight)
    assert tight == []
    assert all(not e.squashed for e in loose)


def test_render_window_slicing():
    tracer = trace_program(assemble(SIMPLE))
    full = tracer.render()
    window = tracer.render(first=1, count=2)
    assert len(window.splitlines()) == 3      # header + two entries
    assert len(full.splitlines()) > len(window.splitlines())


def test_max_entries_bounds_memory():
    for cap in (1, 3, 100):
        tracer = PipelineTracer(OoOCore(assemble(SIMPLE)), max_entries=cap)
        tracer.run()
        # The cap is checked per harvest, so one batch may overshoot it,
        # but it can never grow past cap + one dispatch-width batch.
        assert len(tracer.entries) <= cap + 4
