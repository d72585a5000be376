"""Adversarial micro-programs for the core's batched path.

The registry workloads exercise the batched path at steady state; these
programs are built to hit the batched sweeps where they are weakest:

* a branch that alternates taken/not-taken every iteration, so squashes
  land *mid fetch-group* and the group's younger half must be recycled
  the same cycle it was renamed;
* a wrong-path overfetch storm — a chase-dependent branch whose
  resolution is delayed behind a missing load while the predicted path
  runs into a long straight-line block, maximising pool/quarantine
  churn per squash;
* untaint work while nothing else in the machine moves — a broadcast
  backlog draining, and a store-to-load rule clearing a retired store's
  data taint — which fast-forward must not skip;
* the run modes: commit-level lockstep must fast-forward (so it checks
  the run every figure and campaign takes), while full-level checking,
  tracing and hand stepping put the core in stepped mode — over the same
  phase methods.

Each default run is compared with the reference run by the same
comparator as ``repro check`` (:func:`repro.check.diff.compare_cell`), so "match" means cycles,
retired-PC stream, architectural registers, every metric path of the
metrics tree and the attacker-visible trace digests are all identical;
and with its entry in the golden record (:mod:`tests.fastpath.golden`).
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import pytest

from repro.core.attack_model import AttackModel
from repro.core.shadow_l1 import ShadowMode
from repro.core.spt import ReferenceSPTEngine, SPTEngine
from repro.check.diff import compare_cell, run_outcome
from repro.harness.configs import FULL_SPT, make_engine
from repro.isa.assembler import assemble
from repro.isa.builder import ProgramBuilder
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams
from repro.pipeline.trace import trace_program

from tests.conftest import PHASES
from tests.fastpath.golden import assert_golden

BUDGET = 4000
CONFIGS = ("UnsafeBaseline", "SecureBaseline", "STT", "SPT{Bwd,ShadowL1}")


def golden_key(program, engine_name: str, model: AttackModel) -> str:
    return f"micro/{program.name}/{engine_name}/{model.value}"


def _reference(program, config, model):
    """The reference run's outcome for a locally built program."""
    return run_outcome(program, make_engine(config, model), BUDGET,
                       check_level="full")[1]


def _assert_identical(program, config, model=AttackModel.FUTURISTIC,
                      check_level="off"):
    """Default run (at ``check_level``) against the reference run and the
    golden record."""
    core, run = run_outcome(program, make_engine(config, model), BUDGET,
                            check_level=check_level)
    mismatches = compare_cell(_reference(program, config, model), run)
    assert not mismatches, (
        f"{program.name}/{config}: {'; '.join(mismatches)}")
    assert_golden(golden_key(program, config, model), run)
    return core


def parity_flip_program():
    """A branch that alternates direction every iteration.

    The two-bit counters in the direction predictor can never settle, so
    roughly every other iteration squashes — and because the taken path
    skips a 10-instruction straight-line run, the squash consistently
    lands in the middle of an 8-wide fetch group, recycling instructions
    that were renamed earlier the *same* cycle.
    """
    b = ProgramBuilder("parity-flip", data_base=0x4000)
    b.li("t0", 0)                     # i
    b.li("t1", 48)                    # trip count
    b.li("a1", 0)                     # accumulator
    top = b.label()
    b.andi("t3", "t0", 1)
    odd = b.forward_label()
    b.bne("t3", "zero", odd)          # taken on odd iterations only
    for k in range(10):               # even path: fills the fetch group
        b.addi("a1", "a1", k + 1)
    b.place(odd)
    b.addi("t0", "t0", 1)
    b.bne("t0", "t1", top)
    b.halt()
    return b.build()


def overfetch_storm_program():
    """Wrong-path fetch storm behind a chase-delayed branch.

    Every iteration loads the next pointer (a dependent chase, so the
    load's value arrives late — later still under SPT, which delays the
    dependent branch until the visibility point) and branches on it.
    While the branch sits unresolved, fetch runs ahead into a
    40-instruction straight-line block on the fall-through path; each
    mispredict therefore squashes dozens of in-flight wrong-path
    instructions at once, stressing same-cycle recycling, the cooldown
    list and the quarantine heap together.
    """
    base = 0x10000
    b = ProgramBuilder("overfetch-storm", data_base=base)
    nodes = 24
    # A shuffled ring of word offsets: node i points at node (i*7+3)%n,
    # closing back on node 0 whose next pointer is 0 (the chase's halt
    # sentinel after every node was visited exactly once: 7 and 24 are
    # coprime, so the walk is a full cycle).
    order = [(i * 7 + 3) % nodes for i in range(nodes)]
    words = [0 if nxt == 0 else nxt * 8 for nxt in order]
    b.alloc_words("ring", words)

    b.li("s0", base)                  # arena base
    b.mov("a0", "s0")                 # current node
    b.li("a1", 0)                     # nodes visited
    top = b.label()
    b.ld("a5", "a0", 0)               # next offset (dependent chase)
    b.addi("a1", "a1", 1)
    done = b.forward_label()
    b.beq("a5", "zero", done)         # resolves only when the load lands
    b.add("a0", "a5", "s0")
    b.jal("zero", top)
    b.place(done)
    # The fall-through block fetch speculates into while the branch is
    # pending: long enough to overflow a fetch group several times over.
    for k in range(40):
        b.addi("a2", "a2", k + 1)
    b.sd("a2", "s0", 0)
    b.halt()
    return b.build()


def broadcast_backlog_program():
    """An untaint-broadcast backlog draining behind a DRAM miss.

    ``ld t0`` misses to DRAM and holds retirement; everything younger is
    dispatched and HALT stops fetch.  ``ld a1`` hits the line the older
    store filled, its result is untainted, and the next cycle the forward
    rule fires for every ``add`` that reads it — more requests than the
    width-3 broadcast bus retires in one cycle.  Once the adds have
    completed, the queue keeps draining while nothing else moves: those
    cycles are work, and fast-forward must not skip them.
    """
    source = ["li s3, 0x4000", "li a5, 7", "sd a5, 0(s3)",
              "li s2, 0x100000", "ld t0, 0(s2)", "ld a1, 0(s3)"]
    source += ["add a0, a1, zero"] * 16
    source.append("halt")
    return assemble("\n".join(source), name="broadcast-backlog")


def retired_store_stl_program():
    """An STL-backward request that queues nothing, behind a DRAM miss.

    ``sd a6`` stores a tainted register (never written) and retires at
    once; ``ld a1`` and ``ld a2`` both forward from it.  ``ld t0`` misses
    to DRAM and ``ld t5``, whose address waits on it, misses again: it
    holds retirement long after ``bne`` has resolved.  When ``bne`` resolves, the VP
    sweeps past both trailing loads: ``a6`` is declassified, and the
    chain's end too, so over the next cycles the backward rule walks the
    ``mov`` chain back to ``a2``.  Once ``a2`` is public, the STL-backward
    rule of the younger load clears the retired store's ``t_src2`` with a
    request that queues nothing (``a6`` is already public) — the only
    engine work that cycle.  The next cycle the older load sees the store
    public and untaints ``a1``.
    """
    source = ["li s3, 0x4000", "li s2, 0x100000", "sd a6, 0(s3)",
              "ld t0, 0(s2)", "add t4, t0, s2", "ld t5, 4096(t4)",
              "ld a1, 0(s3)", "ld a2, 0(s3)", "mov a3, a2"]
    source += ["mov a3, a3"] * 11
    source += ["bne t0, zero, next", "next:", "ld s8, 0(a6)",
               "ld s9, 0(a3)", "halt"]
    return assemble("\n".join(source), name="retired-store-stl")


def backlog_engine(engine_cls):
    return engine_cls(AttackModel.FUTURISTIC, backward=True,
                      shadow=ShadowMode.L1)


def stl_engine(engine_cls):
    return engine_cls(AttackModel.SPECTRE, backward=True,
                      shadow=ShadowMode.NONE)


# The fast-forward micro-programs: each runs with the engine class itself
# as both the default and the reference run's engine.
ENGINE_CELLS = ((broadcast_backlog_program, backlog_engine),
                (retired_store_stl_program, stl_engine))
ENGINE_CLASSES = (SPTEngine, ReferenceSPTEngine)


def golden_cells() -> dict:
    """Every golden-record key of this module, with a thunk computing the
    reference run's outcome for it."""
    cells = {}
    futuristic = AttackModel.FUTURISTIC
    for build in (parity_flip_program, overfetch_storm_program):
        for config in CONFIGS:
            cells[golden_key(build(), config, futuristic)] = partial(
                _reference, build(), config, futuristic)
    spectre = AttackModel.SPECTRE
    cells[golden_key(overfetch_storm_program(), FULL_SPT, spectre)] = \
        partial(_reference, overfetch_storm_program(), FULL_SPT, spectre)
    for build, engine in ENGINE_CELLS:
        for engine_cls in ENGINE_CLASSES:
            cells[_engine_cell_key(build, engine, engine_cls)] = partial(
                _checked_outcome, build, engine, engine_cls)
    return cells


def _engine_cell_key(build, engine, engine_cls) -> str:
    return golden_key(build(), engine_cls.__name__, engine(engine_cls).model)


def _checked_outcome(build, engine, engine_cls) -> dict:
    """An engine-class cell run in stepped mode under the full sanitizer."""
    return run_outcome(build(), engine(engine_cls), BUDGET,
                       check_level="full")[1]


def _assert_fast_forward_identical(build, engine, engine_cls) -> dict:
    """The engine-class cell's default run against its checked run and the
    golden record; returns the default outcome."""
    _, run = run_outcome(build(), engine(engine_cls), BUDGET)
    assert compare_cell(_checked_outcome(build, engine, engine_cls), run) == []
    assert_golden(_engine_cell_key(build, engine, engine_cls), run)
    return run


@pytest.mark.parametrize("config", CONFIGS)
def test_squash_mid_fetch_group(config):
    core = _assert_identical(parity_flip_program(), config)
    assert core._stepped is False, "micro-program ran without fast-forward"


@pytest.mark.parametrize("config", CONFIGS)
def test_wrong_path_overfetch_storm(config):
    core = _assert_identical(overfetch_storm_program(), config)
    assert core._stepped is False, "micro-program ran without fast-forward"


@pytest.mark.parametrize("model",
                         [AttackModel.SPECTRE, AttackModel.FUTURISTIC])
def test_storm_under_both_attack_models(model):
    _assert_identical(overfetch_storm_program(), "SPT{Bwd,ShadowL1}",
                      model=model)


@pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
def test_broadcast_backlog_is_not_fast_forwarded(engine_cls):
    """Fails if ``_broadcast`` stops bumping the core's activity counter."""
    run = _assert_fast_forward_identical(broadcast_backlog_program,
                                         backlog_engine, engine_cls)
    # The backlog really drained across several cycles.
    assert run["metrics"]["engine.broadcast.stall_cycles"] >= 3


@pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
def test_retired_store_stl_clear_is_not_fast_forwarded(engine_cls):
    """Fails if ``_request`` stops bumping the core's activity counter."""
    run = _assert_fast_forward_identical(retired_store_stl_program,
                                         stl_engine, engine_cls)
    assert run["metrics"]["engine.untaint.stl-forward"] == 1


def test_recycled_window_drains_clean():
    """After an overfetch storm, no stale state survives in the window.

    The engine's window masks and slot map must be empty, and every
    pooled carcass (retired or squashed) must have released its
    window slot — a leak here would silently corrupt the *next*
    allocation from the pool rather than this run.
    """
    engine = make_engine(FULL_SPT, AttackModel.FUTURISTIC)
    program = overfetch_storm_program()
    core, run = run_outcome(program, engine, BUDGET)
    assert_golden(golden_key(program, FULL_SPT, AttackModel.FUTURISTIC), run)
    for mask in (engine._t_src1_m, engine._t_src2_m, engine._t_dst_m,
                 engine._declassified_m, engine._stl_public_m,
                 engine._pure_m, engine._inv_mono_m, engine._inv_alu_m):
        assert mask == 0
    assert all(di is None for di in engine._slot_di)
    assert engine._retired_data == {}
    # The core's slot tail and the engine's head meet in the empty window,
    # so no pooled carcass (retired or squashed) still holds a slot.
    assert core._slot_tail == engine._head
    # Cooldown victims not yet re-pooled are still squashed carcasses.
    for di in core._cool:
        assert di.squashed


@pytest.mark.parametrize("level", ["commit", "full"])
def test_check_level_picks_the_path(level, run_modes):
    """Commit-level lockstep fast-forwards; full level steps.

    The commit level hooks only retire, squash and finish, so fast-forward
    stays live under it: the lockstep checks the run every figure and
    campaign takes, and the result still equals the reference run.  The
    full level's per-cycle window scans need every cycle, so the core runs
    in stepped mode — the same phases, without fast-forward or recycling.
    """
    core = _assert_identical(overfetch_storm_program(), FULL_SPT,
                             check_level=level)
    assert core.checker is not None
    assert core._stepped == (level == "full")
    # The run at ``level``, then the reference run.
    assert run_modes == [level == "full", True]
    passed = core.build_metrics().groups["check"].groups["passed"].scalars
    assert passed["retire-order"] == core.retired_count
    assert passed["final-state"] == 1


def test_sanitizer_off_enables_fast_path():
    program = parity_flip_program()
    config, model = "UnsafeBaseline", AttackModel.FUTURISTIC
    core, run = run_outcome(program, make_engine(config, model), BUDGET)
    assert core._stepped is False
    assert core.checker is None
    assert_golden(golden_key(program, config, model), run)


def test_every_mode_runs_the_same_phases(monkeypatch):
    """Full-level, traced and hand-stepped runs are in stepped mode, and
    stepped mode calls the very phase methods the default run calls."""
    calls: Counter = Counter()
    for name in PHASES:
        def spy(core, *args, _real=getattr(OoOCore, name), _name=name):
            calls[_name, core._stepped] += 1
            return _real(core, *args)
        monkeypatch.setattr(OoOCore, name, spy)
    program = parity_flip_program()
    default = OoOCore(program)
    default.run()
    checked = OoOCore(program, params=MachineParams(check_level="full"))
    checked.run()
    traced = trace_program(program).core
    by_hand = OoOCore(program)
    while not by_hand.halted:
        by_hand.step()
    assert default._stepped is False
    assert checked._stepped and traced._stepped and by_hand._stepped
    for core in (checked, traced, by_hand):
        assert (core.cycle, core.retired_count) == \
            (default.cycle, default.retired_count)
    for name in PHASES:
        assert calls[name, False] and calls[name, True], name
    # Stepped mode steps every cycle; the default run fast-forwarded some.
    assert calls["_writeback_batched", True] == 3 * default.cycle
    assert calls["_writeback_batched", False] < default.cycle
