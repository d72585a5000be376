"""The rename unit (RAT / free list / PRF) as the core drives it.

Dispatch renames inline, so these tests step a core until its
instructions have dispatched and then read, undo and commit through that
core's own :class:`RenameUnit`.
"""

from repro.isa.assembler import assemble
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams
from repro.pipeline.rename import RenameUnit


def dispatched(source: str, count: int) -> OoOCore:
    """A core stepped until the first ``count`` instructions of ``source``
    have dispatched, before any of them retires."""
    core = OoOCore(assemble(source))
    while len(core.rob) < count:
        core.step()
    assert core.retired_count == 0
    return core


def test_initial_identity_mapping():
    unit = RenameUnit(64)
    assert unit.rat[:4] == [0, 1, 2, 3]
    assert unit.arch_value(5) == 0


def test_rename_allocates_and_tracks_old_mapping():
    core = dispatched("add x3, x1, x2\nhalt\n", 1)
    inst = core.rob[0]
    assert inst.prs1 == 1 and inst.prs2 == 2
    assert inst.prd == 32                    # first free physical register
    assert inst.old_prd == 3
    assert core.rename.rat[3] == 32
    assert not core.rename.ready[32]


def test_result_reaches_read_and_arch_value():
    core = OoOCore(assemble("li x4, 9\nhalt\n"))
    core.run()
    unit = core.rename
    preg = unit.rat[4]
    assert preg >= 32 and unit.ready[preg]
    assert unit.read(preg) == 9
    assert unit.arch_value(4) == 9


def test_x0_never_renamed():
    core = dispatched("li x0, 5\nhalt\n", 1)
    assert core.rob[0].prd == -1
    assert core.rename.rat[0] == 0
    assert core.run().reg(0) == 0


def test_undo_restores_rat_and_frees():
    core = dispatched("li x7, 1\nli x7, 2\nhalt\n", 2)
    first, second = core.rob[:2]
    unit = core.rename
    freed = second.prd
    free_before = len(unit.free)
    unit.undo(second)
    assert unit.rat[7] == first.prd
    assert len(unit.free) == free_before + 1
    assert unit.free[0] == freed             # reused first (appendleft)
    assert unit.ready[freed] and second.prd == -1


def test_undo_youngest_first_restores_chain():
    core = dispatched("li x5, 0\nli x5, 1\nli x5, 2\nhalt\n", 3)
    for inst in reversed(core.rob[:3]):
        core.rename.undo(inst)
    assert core.rename.rat[5] == 5           # back to the identity mapping


def test_commit_reclaims_previous_mapping():
    core = dispatched("li x6, 1\nli x6, 2\nhalt\n", 2)
    first, second = core.rob[:2]
    unit = core.rename
    free_before = len(unit.free)
    unit.commit(first)                        # frees the identity reg 6
    unit.commit(second)                       # frees first.prd
    assert len(unit.free) == free_before + 2
    assert list(unit.free)[-2:] == [6, first.prd]


def test_commit_never_frees_phys_zero():
    # x0 is never renamed, so no write has phys 0 as its old mapping;
    # commit keeps phys 0 pinned even if one did.
    core = dispatched("li x1, 1\nhalt\n", 1)
    inst = core.rob[0]
    inst.old_prd = 0
    core.rename.commit(inst)
    assert 0 not in core.rename.free


def test_out_of_phys_regs():
    """With two spare physical registers the third write finds the free
    list empty: dispatch stalls, charged to ``rob-full``, until a retire
    frees a register, and the program still halts with the right values."""
    source = "li x1, 1\nli x2, 2\nli x3, 3\nhalt\n"
    stalls = {}
    for regs in (34, 300):
        sim = OoOCore(assemble(source), params=MachineParams(
            num_phys_regs=regs, rob_entries=4)).run()
        assert sim.halted
        assert [sim.reg(i) for i in (1, 2, 3)] == [1, 2, 3]
        stalls[regs] = sim.metrics.flatten()["stalls.rob-full"]
    # Four instructions never fill the four-entry ROB: with registers to
    # spare nothing is charged, so every rob-full cycle is the free list's.
    assert stalls[300] == 0
    assert stalls[34] > 0
