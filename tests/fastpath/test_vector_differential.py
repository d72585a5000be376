"""Tier-1 differential pinning of the vector backend.

The full Figure 7 grid runs nightly (``repro backend-diff``); this suite
keeps a representative slice in the fast test tier: every protection
family, a memory-bound and a compute-bound workload, both attack models,
with fast-forwarding live (``check_level="off"``) so the quiescent-cycle
batching itself is under differential test.  ``compare_cell`` checks
cycles, the retired-PC stream, architectural state, flat stats, the whole
metrics tree, and the per-channel trace digests.
"""

import pytest

from repro.core.attack_model import AttackModel
from repro.fastpath.diff import compare_cell, run_backend
from repro.harness.configs import make_engine
from repro.pipeline.core import SimulationError, build_core
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
    ref = run_backend(workload, config, model, 1, BUDGET, "reference")
    vec = run_backend(workload, config, model, 1, BUDGET, "vector")
    assert compare_cell(ref, vec) == [], (ref.get("cycles"),
                                          vec.get("cycles"))


def test_wedged_runs_raise_identically():
    # A cycle cap small enough to trip mid-run: the vector backend must
    # raise the same SimulationError at the same point, even though it
    # reaches the cap by jumping rather than stepping.
    def capped(backend):
        program = get_workload("mcf").program(1)
        engine = make_engine("SPT{Bwd,ShadowL1}", AttackModel.FUTURISTIC)
        params = MachineParams(backend=backend, max_cycles=400)
        core = build_core(program, engine=engine, params=params)
        with pytest.raises(SimulationError) as info:
            core.run(max_instructions=10_000_000)
        return str(info.value), core.cycle, core.retired_count
    assert capped("reference") == capped("vector")


def test_vector_engine_window_drains_clean():
    # After a completed run every slot must have been freed: leftover mask
    # bits would mean retire/squash bookkeeping diverged from the ROB.
    program = get_workload("chacha20").program(1)
    engine = make_engine("SPT{Bwd,ShadowL1}", AttackModel.FUTURISTIC)
    core = build_core(program, engine=engine,
                      params=MachineParams(backend="vector"))
    core.run(max_instructions=2000)
    engine = core.engine
    assert engine._t_src1_m == engine._t_src2_m == engine._t_dst_m == 0
    assert engine._pure_m == engine._inv_mono_m == engine._inv_alu_m == 0
    assert all(di is None for di in engine._slot_di)
