"""Tier-1 differential pinning of the default run against the reference run.

The full Figure 7 grid runs nightly (``repro backend-diff``); this suite
keeps a representative slice in the fast test tier: every protection
family, a memory-bound and a compute-bound workload, both attack models,
with fast-forwarding live on the default run so the quiescent-cycle
batching itself is under differential test.  ``compare_cell`` checks
cycles, the retired-PC stream, architectural state, flat stats, the whole
metrics tree, and the per-channel trace digests.
"""

import pytest

from repro.core.attack_model import AttackModel
from repro.fastpath.diff import (compare_cell, reference_engine, run_cell,
                                 run_outcome)
from repro.harness.configs import FULL_SPT, make_engine
from repro.pipeline.core import OoOCore, SimulationError
from repro.pipeline.params import MachineParams
from repro.workloads.registry import get as get_workload

BUDGET = 1500

CELLS = [
    ("mcf", "UnsafeBaseline", AttackModel.FUTURISTIC),
    ("mcf", "SecureBaseline", AttackModel.FUTURISTIC),
    ("mcf", "STT", AttackModel.SPECTRE),
    ("mcf", "SPT{Bwd,ShadowL1}", AttackModel.FUTURISTIC),
    ("mcf", "SPT{Bwd,ShadowL1}", AttackModel.SPECTRE),
    ("mcf", "SPT{Fwd,NoShadowL1}", AttackModel.FUTURISTIC),
    ("mcf", "SPT{Ideal,ShadowMem}", AttackModel.FUTURISTIC),
    ("chacha20", "SPT{Bwd,ShadowL1}", AttackModel.FUTURISTIC),
    ("chacha20", "STT", AttackModel.FUTURISTIC),
    ("xalancbmk", "SPT{Bwd,ShadowMem}", AttackModel.SPECTRE),
]


@pytest.mark.parametrize("workload,config,model", CELLS,
                         ids=[f"{w}-{c}-{m.value}" for w, c, m in CELLS])
def test_backends_bit_identical(workload, config, model):
    ref = run_cell(workload, config, model, 1, BUDGET, reference=True)
    run = run_cell(workload, config, model, 1, BUDGET)
    assert compare_cell(ref, run) == [], (ref.get("cycles"),
                                          run.get("cycles"))


def test_reference_engine_on_the_batched_path():
    """ReferenceSPTEngine on the default run pins the engine's bumps.

    Fast-forward skips a cycle only when nothing bumped the core's
    activity counter.  This cell diverges from the reference run when the
    engine stops bumping it for untaint requests and broadcasts (the
    micro-programs in ``test_batched_core`` pin each bump on its own).
    """
    program = get_workload("deepsjeng").program(1)

    def engine():
        return reference_engine(make_engine(FULL_SPT, AttackModel.SPECTRE))

    _, ref = run_outcome(program, engine(), 2000, check_level="full")
    _, run = run_outcome(program, engine(), 2000)
    assert compare_cell(ref, run) == []


def test_wedged_runs_raise_identically():
    # A cycle cap small enough to trip mid-run: the default run must raise
    # the same SimulationError at the same point, even though it reaches
    # the cap by jumping rather than stepping.
    def capped(reference):
        program = get_workload("mcf").program(1)
        engine = make_engine(FULL_SPT, AttackModel.FUTURISTIC)
        if reference:
            engine = reference_engine(engine)
        params = MachineParams(check_level="full" if reference else "off",
                               max_cycles=400)
        core = OoOCore(program, engine=engine, params=params)
        with pytest.raises(SimulationError) as info:
            core.run(max_instructions=10_000_000)
        return str(info.value), core.cycle, core.retired_count
    assert capped(reference=True) == capped(reference=False)


def test_vector_engine_window_drains_clean():
    # After a completed run every slot must have been freed: leftover mask
    # bits would mean retire/squash bookkeeping diverged from the ROB.
    program = get_workload("chacha20").program(1)
    engine = make_engine(FULL_SPT, AttackModel.FUTURISTIC)
    OoOCore(program, engine=engine).run(max_instructions=2000)
    assert engine._t_src1_m == engine._t_src2_m == engine._t_dst_m == 0
    assert engine._pure_m == engine._inv_mono_m == engine._inv_alu_m == 0
    assert all(di is None for di in engine._slot_di)
