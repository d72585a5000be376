"""Tier-1 differential pinning of the default run against the reference run.

The full grid runs nightly (``repro check``); this suite
keeps a representative slice in the fast test tier: every protection
family, a memory-bound and a compute-bound workload, both attack models,
with fast-forwarding live on the default run so the quiescent-cycle
batching itself is under differential test.  ``compare_cell`` checks
cycles, the retired-PC stream, architectural state, every metric path of
the metrics tree, and the per-channel trace digests; every default run
must also match its entry in the golden record (:mod:`tests.fastpath.golden`).
"""

from functools import partial

import pytest

from repro.core.attack_model import AttackModel
from repro.core.shadow_l1 import ShadowMode
from repro.core.spt import ReferenceSPTEngine
from repro.check.diff import compare_cell, run_cell, run_outcome
from repro.harness.configs import FULL_SPT, make_engine
from repro.pipeline.core import OoOCore, SimulationError
from repro.pipeline.params import MachineParams
from repro.workloads.registry import get as get_workload

from tests.fastpath.golden import assert_golden

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
# The cells the tests below run outside ``CELLS``.
REFERENCE_ENGINE_CELL = ("deepsjeng", FULL_SPT, AttackModel.SPECTRE, 2000)
DRAIN_CELL = ("chacha20", FULL_SPT, AttackModel.FUTURISTIC, 2000)
WEDGED_KEY = "vector/mcf/wedged"


def golden_key(workload, config, model, budget) -> str:
    return f"vector/{workload}/{config}/{model.value}/{budget}"


def golden_cells() -> dict:
    """Every golden-record key of this module, with a thunk computing the
    reference run's outcome for it."""
    cells = [(w, c, m, BUDGET) for w, c, m in CELLS]
    cells += [REFERENCE_ENGINE_CELL, DRAIN_CELL]
    record = {golden_key(*cell): partial(run_cell, cell[0], cell[1], cell[2],
                                         1, cell[3], reference=True)
              for cell in cells}
    record[WEDGED_KEY] = lambda: {"error": _capped(reference=True)[0]}
    return record


@pytest.mark.parametrize("workload,config,model", CELLS,
                         ids=[f"{w}-{c}-{m.value}" for w, c, m in CELLS])
def test_backends_bit_identical(workload, config, model):
    ref = run_cell(workload, config, model, 1, BUDGET, reference=True)
    run = run_cell(workload, config, model, 1, BUDGET)
    assert compare_cell(ref, run) == [], (ref.get("cycles"),
                                          run.get("cycles"))
    assert_golden(golden_key(workload, config, model, BUDGET), run)


def test_reference_engine_on_the_batched_path():
    """ReferenceSPTEngine on the default run pins the engine's bumps.

    Fast-forward skips a cycle only when nothing bumped the core's
    activity counter.  This cell diverges from the reference run when the
    engine stops bumping it for untaint requests and broadcasts (the
    micro-programs in ``test_batched_core`` pin each bump on its own).
    """
    workload, config, model, budget = REFERENCE_ENGINE_CELL
    program = get_workload(workload).program(1)

    def engine():    # FULL_SPT's engine, one entry at a time
        return ReferenceSPTEngine(model, backward=True, shadow=ShadowMode.L1)

    _, ref = run_outcome(program, engine(), budget, check_level="full")
    _, run = run_outcome(program, engine(), budget)
    assert compare_cell(ref, run) == []
    assert_golden(golden_key(*REFERENCE_ENGINE_CELL), run)


def _capped(reference: bool) -> tuple:
    """An mcf run under a cycle cap small enough to trip mid-run, as
    ``(error, cycle, retired)``."""
    program = get_workload("mcf").program(1)
    engine = make_engine(FULL_SPT, AttackModel.FUTURISTIC)
    params = MachineParams(check_level="full" if reference else "off",
                           max_cycles=400)
    core = OoOCore(program, engine=engine, params=params)
    try:
        core.run(max_instructions=10_000_000)
    except SimulationError as exc:
        return f"SimulationError: {exc}", core.cycle, core.retired_count
    return None, core.cycle, core.retired_count


def test_wedged_runs_raise_identically():
    # The default run must raise the same SimulationError at the same
    # point, even though it reaches the cap by jumping rather than stepping.
    run = _capped(reference=False)
    assert run[0] is not None, "the cycle cap did not trip"
    assert _capped(reference=True) == run
    assert_golden(WEDGED_KEY, {"error": run[0]})


def test_vector_engine_window_drains_clean():
    # After a completed run every slot must have been freed: leftover mask
    # bits would mean retire/squash bookkeeping diverged from the ROB.
    workload, config, model, budget = DRAIN_CELL
    engine = make_engine(config, model)
    _, run = run_outcome(get_workload(workload).program(1), engine, budget)
    assert engine._t_src1_m == engine._t_src2_m == engine._t_dst_m == 0
    assert engine._pure_m == engine._inv_mono_m == engine._inv_alu_m == 0
    assert all(di is None for di in engine._slot_di)
    assert_golden(golden_key(*DRAIN_CELL), run)
