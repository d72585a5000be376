"""Regression tests: wrong-path fetch must not corrupt speculative
predictor state (RAS entries, gshare history).

The predictor pushes/pops the return-address stack at *fetch* time, i.e.
speculatively.  Before the checkpoint/restore fix, a squash left those
wrong-path mutations in place: a wrong-path call left a stale return
target on the stack and a wrong-path return consumed a live one, so a
later real return predicted garbage.
"""

from repro.isa.builder import ProgramBuilder
from repro.pipeline.core import OoOCore


def _delay(b: ProgramBuilder, dst: str, mults: int = 8) -> None:
    """dst = 0, ready only after a multiply chain (delays a comparison)."""
    b.li(dst, 0)
    b.li("t4", 1)
    for _ in range(mults):
        b.mul(dst, dst, "t4")


def test_wrong_path_return_does_not_eat_live_ras_entry():
    b = ProgramBuilder("ras-wrong-path-return")
    outer = b.forward_label("outer")
    taken = b.forward_label("taken")
    done = b.forward_label("done")
    b.li("t1", 0)
    b.jal("ra", outer)            # push the live return address R0
    b.jal(0, done)                # R0
    b.place(outer)
    b.mov("s10", "ra")
    _delay(b, "t3")               # beq operand arrives late: wide wrong path
    b.beq("t1", "t3", taken)      # 0 == 0: taken; cold gshare predicts NT
    b.jalr(0, "ra", 0)            # wrong-path return: pops R0 speculatively
    b.place(taken)
    b.mov("ra", "s10")
    b.jalr(0, "ra", 0)            # the real return: must still predict R0
    b.place(done)
    b.halt()

    core = OoOCore(b.build())
    sim = core.run(max_instructions=10_000)
    assert sim.halted
    # Only the trained-cold bounds branch mispredicts.  Before the fix the
    # wrong-path pop emptied the RAS, the real return fell through to an
    # untrained BTB, and a second misprediction showed up here.
    assert sim.metrics.flatten()["speculation.mispredicts"] == 1
    assert core.predictor.ras.depth() == 0


def test_wrong_path_calls_leave_no_stale_ras_entries():
    b = ProgramBuilder("ras-wrong-path-call")
    taken = b.forward_label("taken")
    h1 = b.forward_label("h1")
    h2 = b.forward_label("h2")
    b.li("t1", 0)
    _delay(b, "t3")
    b.beq("t1", "t3", taken)      # taken; predicted not-taken when cold
    b.jal("ra", h1)               # wrong-path call #1
    b.place(taken)
    b.halt()
    b.place(h1)
    b.jal("ra", h2)               # wrong-path call #2 (nested)
    b.place(h2)
    b.halt()

    core = OoOCore(b.build())
    sim = core.run(max_instructions=10_000)
    assert sim.halted
    # Both wrong-path pushes must be rolled back by the squash.
    assert core.predictor.ras.depth() == 0
    assert sim.metrics.flatten()["speculation.mispredicts"] == 1
    assert sim.metrics.flatten()["speculation.squashed_insts"] > 0
