"""Seeded-bug mutation suite: the sanitizer must catch every mutation.

Each test injects one bug into the pipeline or a protection engine — via
monkeypatching, never by editing a source file (a one-line rule bug is
the method recompiled with one fragment replaced) — runs a program at
``check_level=full``, and asserts that the sanitizer raises
:class:`InvariantViolation` with the *correct* invariant id.  This is the
checker checking the checker: a sanitizer that misses any of these seeded
bugs, or attributes one to the wrong invariant, fails here.

Every SPT run below is the packed ``SPTEngine`` with the sanitizer's
``ReferenceSPTEngine`` beside it.  An SPT bug planted on the reference is
named by the sanitizer's own check of that rule; the same bug planted on
the packed engine is named ``spt-reference``.  A per-cycle bug patches
``step``: an engine's inherited ``tick`` never runs in a group.
"""

from __future__ import annotations

import inspect
import sys
import textwrap

import pytest

from repro.check import InvariantViolation
from repro.core.attack_model import AttackModel
from repro.core.shadow_l1 import ShadowMode
from repro.core.spt import ReferenceSPTEngine, SPTEngine
from repro.core.stt import STTEngine
from repro.harness.configs import FULL_SPT, make_engine
from repro.harness.parallel import RunFailure, RunSpec, run_many
from repro.isa.assembler import assemble
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams
from repro.workloads.random_programs import random_program
from repro.workloads.registry import get as get_workload


def checked_params() -> MachineParams:
    return MachineParams(check_level="full")


def spt_engine(shadow: ShadowMode = ShadowMode.NONE) -> SPTEngine:
    return SPTEngine(AttackModel.FUTURISTIC, backward=True, shadow=shadow)


def run_checked(program, engine=None, params=None, budget=20_000):
    core = OoOCore(program, engine=engine, params=params or checked_params())
    return core.run(max_instructions=budget)


def expect_violation(invariant: str, program, engine=None, params=None,
                     budget=20_000) -> InvariantViolation:
    with pytest.raises(InvariantViolation) as exc_info:
        run_checked(program, engine=engine, params=params, budget=budget)
    violation = exc_info.value
    assert violation.invariant == invariant, (
        f"caught by {violation.invariant!r}, expected {invariant!r}:\n"
        f"{violation}")
    return violation


# A program with transient execution: a loop whose final iteration
# mispredicts, dependent loads/stores, and initially-tainted inputs.
LOOP_WITH_MEMORY = """
    li s2, 0x4000
    li t0, 0
    li t1, 8
loop:
    sd t0, 0(s2)
    ld a0, 0(s2)
    addi s2, s2, 8
    addi t0, t0, 1
    bne t0, t1, loop
    halt
"""


def expect_planted(monkeypatch, invariant: str, method: str, make_bug,
                   program, engine) -> list:
    """Plant ``make_bug(cls)`` as ``cls.method`` on the reference engine,
    then on the packed one, and run the packed configuration ``engine()``
    at ``full`` each time: the reference's bug must be named
    ``invariant``, the packed engine's ``spt-reference``.  Returns the
    two violations."""
    violations = []
    for cls, expected in ((ReferenceSPTEngine, invariant),
                          (SPTEngine, "spt-reference")):
        with monkeypatch.context() as patch:
            patch.setattr(cls, method, make_bug(cls))
            violations.append(expect_violation(expected, program,
                                               engine=engine()))
    return violations


# A load whose address is a loaded value: declassifying it untaints a
# register, so an early declassification changes the packed engine's
# state, not just its declassified bit.
LOADED_ADDRESS = """
    li s2, 0x4000
    ld t0, 0(s2)
    ld a0, 0(t0)
    halt
"""


# ---------------------------------------------------------------- mutations
def test_mutation_drop_taint_on_rename(monkeypatch):
    """Seeded bug: rename forgets the source-operand taint bits."""
    def make_bug(cls):
        original = cls.on_rename

        def buggy(self, di):
            original(self, di)
            # Drops the Section 6.3 entry taint from the engine's own bit.
            if cls is SPTEngine:
                self._t_src1_m &= ~(1 << di.fp_slot)
            else:
                di.t_src1 = False
        return buggy

    expect_planted(monkeypatch, "taint-init", "on_rename", make_bug,
                   random_program(7), spt_engine)


def test_mutation_untaint_one_cycle_early(monkeypatch):
    """Seeded bug: transmitters declassified while still transient."""
    def make_bug(cls):
        original = cls.step

        def buggy(self, newly_vp):
            original(self, newly_vp)
            for di in self.core.in_flight():
                if di.is_transmitter and not di.squashed:
                    self._declassify(di)        # ignores the VP frontier
        return buggy

    with monkeypatch.context() as patch:
        patch.setattr(ReferenceSPTEngine, "step",
                      make_bug(ReferenceSPTEngine))
        expect_violation("vp-declassify", assemble(LOOP_WITH_MEMORY),
                         engine=spt_engine())
    # In the loop every address is public already, so the packed engine's
    # early bit changes no answer and no state; a loaded address does.
    reference, packed = expect_planted(
        monkeypatch, "vp-declassify", "step", make_bug,
        assemble(LOADED_ADDRESS), spt_engine)
    assert packed.cycle == reference.cycle


def test_mutation_skip_squash_of_wrong_path_load(monkeypatch):
    """Seeded bug: a squashed wrong-path load lingers in the LSQ."""
    original = OoOCore._squash_after

    def buggy(self, di):
        original(self, di)
        # Resurrect the youngest squashed load into the LSQ.
        if self.squash_sink:
            for victim in self.squash_sink:
                if victim.is_load:
                    self.lsq.append(victim)
                    break
            self.squash_sink.clear()

    monkeypatch.setattr(OoOCore, "_squash_after", buggy)
    # The branch predicate hangs on a DRAM miss, so the wrong path (gshare
    # starts weakly not-taken; the branch is actually taken) is dispatched
    # into the ROB/LSQ long before the late mispredict squashes it.
    program = assemble("""
        li s2, 0x100000
        ld t0, 0(s2)
        beq t0, zero, skip
        sd t0, 0(s2)
        ld a0, 0(s2)
        addi t0, t0, 1
skip:
        halt
    """)
    with pytest.raises(InvariantViolation) as exc_info:
        core = OoOCore(program, params=checked_params())
        core.squash_sink = []
        core.run(max_instructions=20_000)
    assert exc_info.value.invariant == "squash-complete", str(exc_info.value)


@pytest.mark.parametrize("level", ["commit", "full"])
def test_mutation_squash_keeps_rs_occupancy(monkeypatch, level):
    """Seeded bug: a squash leaves its victims' RS entries occupied.

    The leak never corrupts a result — it only shrinks the reservation
    station, so the run slows down — and the reservation station is only
    an occupancy count, so the check is an identity between that count
    and the window's un-issued entries.
    """
    original = OoOCore._squash_after

    def buggy(self, di):
        held = self._rs_count
        original(self, di)
        self._rs_count = held           # the victims' entries stay taken

    monkeypatch.setattr(OoOCore, "_squash_after", buggy)
    expect_violation("squash-complete", get_workload("deepsjeng").program(1),
                     engine=make_engine(FULL_SPT, AttackModel.FUTURISTIC),
                     params=MachineParams(check_level=level), budget=3000)


def test_mutation_forward_from_stale_store(monkeypatch):
    """Seeded bug: store-to-load forwarding picks the oldest match."""
    original = OoOCore._memory_dependences

    def buggy(self, load):
        blocked, forward = original(self, load)
        if forward is not None:
            for st in self.lsq:          # oldest matching store wins instead
                if st.seq >= load.seq:
                    break
                if (st.is_store and not st.squashed and st.addr_ready
                        and st.address == load.address
                        and st.info.mem_size >= load.info.mem_size):
                    return blocked, st
        return blocked, forward

    monkeypatch.setattr(OoOCore, "_memory_dependences", buggy)
    program = assemble("""
        li s2, 0x4000
        li a0, 1
        sd a0, 0(s2)
        li a0, 2
        sd a0, 0(s2)
        ld a1, 0(s2)
        halt
    """)
    expect_violation("lsq-forwarding", program)


# A tainted-address load parked behind a DRAM-miss VP obstacle.  The
# obstacle matters: ``advance_vp`` marks the *first* obstacle itself as
# having reached the VP, so the oldest in-flight transmitter is always
# legal — the gated load must sit behind an older incomplete load for the
# futuristic-model frontier to hold it transient.
GATED_LOAD_BEHIND_MISS = """
    li s2, 0x100000
    ld a4, 0(s2)
    ld a1, 0(a0)
    halt
"""


def test_mutation_gated_transmitter_touches_cache():
    """Seeded bug: the engine stops gating tainted-address transmitters."""
    engine = spt_engine()
    engine.may_compute_address = lambda di: True    # type: ignore[assignment]
    # x10 is never written: its initial value is tainted, so the load's
    # address operand is secret and must not reach the cache pre-VP.
    expect_violation("gated-transmitter", assemble(GATED_LOAD_BEHIND_MISS),
                     engine=engine)


def test_mutation_resolution_bypasses_gate():
    """Seeded bug: branch resolution ignores the taint gate."""
    engine = spt_engine()
    engine.may_resolve = lambda di: True            # type: ignore[assignment]
    # The load is a long-latency VP obstacle (futuristic model); the branch
    # behind it resolves with tainted predicate registers.
    program = assemble("""
        li s2, 0x100000
        ld a1, 0(s2)
        beq a2, a3, skip
        addi t0, t0, 1
skip:
        halt
    """)
    expect_violation("gated-resolution", program, engine=engine)


def test_mutation_broadcast_overruns_width(monkeypatch):
    """Seeded bug: the untaint broadcast ignores its width limit."""
    def make_bug(cls):
        original = cls._broadcast

        def buggy(self, limit):
            # A wider bus, not an unbounded one: ``limit=None`` would also
            # skip the ledger's per-cycle width record before any overrun.
            return original(self, limit + 8)
        return buggy

    # Eight stores with distinct tainted address registers pile up behind a
    # branch whose predicate hangs on a DRAM miss (the only Spectre-model
    # obstacle).  Resolution releases the frontier in one sweep: all eight
    # stores declassify in the same tick, queueing eight untaint requests —
    # more than the width-3 broadcast bus may retire in one cycle.
    source = ["li t1, 0x100000", "ld t2, 0(t1)", "bne t2, zero, out"]
    for reg in ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"):
        source.append(f"sd zero, 0({reg})")
    source.extend(["out:", "    halt"])
    expect_planted(monkeypatch, "broadcast-width", "_broadcast", make_bug,
                   assemble("\n".join(source)),
                   lambda: SPTEngine(AttackModel.SPECTRE, backward=True))


def test_mutation_missed_shadow_eviction(monkeypatch):
    """Seeded bug: L1 evictions stop invalidating the shadow L1."""
    # The store creates a shadow line when it retires and fills the L1.  The
    # conflict walk must run *after* that retire, so its address chains
    # through a DRAM miss: t3 becomes 0x4000 only once the miss returns,
    # long after the store's line (the set's LRU entry by then) is resident.
    # Nine more lines of the same set (32 KB / 64 B / 8 ways -> 4 KB stride)
    # then force its eviction.
    source = ["li s2, 0x4000", "li a0, 5", "sd a0, 0(s2)",
              "li t1, 0x100000", "ld t2, 0(t1)", "add t3, t2, s2"]
    for way in range(1, 10):
        source.append(f"ld a1, {way * 4096}(t3)")
    source.append("halt")
    expect_planted(monkeypatch, "shadow-residency", "on_l1_evict",
                   lambda cls: lambda self, line: None,
                   assemble("\n".join(source)),
                   lambda: spt_engine(shadow=ShadowMode.L1))


def mutated(cls, method: str, old: str, new: str):
    """``cls.method`` recompiled with the source fragment ``old`` replaced
    by ``new``: a one-line bug in an engine rule."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, method)))
    assert source.count(old) == 1, f"{method} no longer reads {old!r}"
    namespace: dict = {}
    exec(source.replace(old, new), dict(vars(sys.modules[cls.__module__])),
         namespace)
    return namespace[method]


# Unsound SPT rules, each planted on the packed engine with the cell's
# attack model and the cycle the lockstep names.  On gcc at budget 500 no
# check of the checked engine's own bits trips on any of them; the
# lockstep names each ``spt-reference`` at the first cycle whose end
# state differs from the reference's.
UNSOUND_RULES = {
    "forward-rule-ignores-src2": (
        "_local_rules",
        "fwd = self._t_dst_m & self._pure_m & ~t_src1 & ~t_src2",
        "fwd = self._t_dst_m & self._pure_m & ~t_src1",
        AttackModel.FUTURISTIC, 5),
    "loaded-bytes-mirrored-public": (
        "on_load_data",
        "self._load_data(di, bool((self._t_dst_m >> di.fp_slot) & 1))",
        "self._load_data(di, False)",
        AttackModel.FUTURISTIC, 9),
    "tainted-store-data-mirrored-public": (
        "on_store_retire",
        "self._store_data(di, bool((self._t_src2_m >> di.fp_slot) & 1))",
        "self._store_data(di, False)",
        AttackModel.FUTURISTIC, 536),
    "backward-rule-on-any-pure-op": (
        "_local_rules",
        "(self._inv_alu_m & (t_src1 ^ t_src2))",
        "(self._pure_m & (t_src1 ^ t_src2))",
        AttackModel.SPECTRE, 167),
}


@pytest.mark.parametrize("name", sorted(UNSOUND_RULES))
def test_unsound_rule_fails_the_lockstep(monkeypatch, name):
    """Through ``run_many`` (serial, uncached, patched before anything
    runs) the failure names the cell, the invariant and the cycle."""
    method, old, new, model, cycle = UNSOUND_RULES[name]
    monkeypatch.setattr(SPTEngine, method, mutated(SPTEngine, method, old,
                                                   new))
    spec = RunSpec("gcc", FULL_SPT, model, max_instructions=500,
                   params=checked_params())
    with pytest.raises(RunFailure) as exc_info:
        run_many([spec], jobs=1, use_cache=False)
    failure = exc_info.value
    assert failure.spec == spec and spec.describe() in str(failure)
    violation = failure.__cause__
    assert isinstance(violation, InvariantViolation), failure
    assert (violation.invariant, violation.cycle) == \
        ("spt-reference", cycle), str(violation)


def test_mutation_retire_corrupts_store_data(monkeypatch):
    """Seeded bug: stores retire with a corrupted data value."""
    original = OoOCore._retire

    def buggy(self, di):
        if di.is_store:
            di.rs2_value = (di.rs2_value or 0) + 1
        original(self, di)

    monkeypatch.setattr(OoOCore, "_retire", buggy)
    expect_violation("mem-equality", assemble(LOOP_WITH_MEMORY))


def test_mutation_stt_root_dropped(monkeypatch):
    """Seeded bug: STT forgets to propagate the youngest root of taint."""
    original = STTEngine.on_rename

    def buggy(self, di):
        original(self, di)
        if not di.is_load and di.prd >= 0:
            self._root_of.pop(di.prd, None)         # dependents untainted

    monkeypatch.setattr(STTEngine, "on_rename", buggy)
    # ``ld t2`` cold-misses to DRAM: it installs the line (so the root load's
    # mandatory cache access behind store-to-load forwarding is an L1 hit and
    # completes quickly) and stays incomplete for ~150 cycles, holding the VP
    # frontier — the root stays live while the dependent chain feeds the
    # second load's address.  Dropping the root at ``add`` lets that load
    # issue while speculatively shadowed; the sanitizer's private YRoT map
    # disagrees and flags the transmit.
    engine = STTEngine(AttackModel.FUTURISTIC)
    program = assemble("""
        li s2, 0x4000
        li a0, 8
        ld t2, 0(s2)
        sd a0, 0(s2)
        ld a1, 0(s2)
        add a2, a1, s2
        ld a3, 0(a2)
        halt
    """)
    expect_violation("gated-transmitter", program, engine=engine)


# ------------------------------------------------------------ meta checks
def test_clean_run_raises_nothing():
    """The same programs pass with no mutation applied (control group)."""
    for engine in (None, spt_engine(shadow=ShadowMode.L1),
                   STTEngine(AttackModel.SPECTRE)):
        sim = run_checked(assemble(LOOP_WITH_MEMORY), engine=engine)
        assert sim.halted
        assert sim.metrics.groups["check"].scalars["total"] > 0


def test_violation_reports_carry_context():
    """A violation names the invariant, cycle, and offending instruction."""
    engine = spt_engine()
    engine.may_compute_address = lambda di: True    # type: ignore[assignment]
    violation = expect_violation(
        "gated-transmitter", assemble(GATED_LOAD_BEHIND_MISS), engine=engine)
    assert violation.cycle > 0
    assert violation.inst is not None
    assert "gated-transmitter" in str(violation)
    # A packed gate that holds what its reference would release gets past
    # every gating check; the reference leaves the group, and the
    # violation names the query and the instruction it was asked about.
    engine = spt_engine()
    engine.may_compute_address = lambda di: False   # type: ignore[assignment]
    violation = expect_violation(
        "spt-reference", assemble(GATED_LOAD_BEHIND_MISS), engine=engine)
    assert violation.cycle > 0 and "may_compute_address" in str(violation)
    assert violation.inst is not None and " ld " in violation.inst


@pytest.mark.parametrize("gate", ["may_compute_address", "may_resolve"])
def test_held_gate_is_named_by_the_lockstep(gate):
    """Seeded bug: a packed gate holds everything.  The reference leaves
    the group at issue (or resolution), before the cycle's dispatch, and
    hears no rename after it; the rename check that then reads its stale
    taint must report the departure, not a ``taint-init`` mismatch."""
    engine = spt_engine()
    setattr(engine, gate, lambda di: False)
    violation = expect_violation("spt-reference", random_program(7),
                                 engine=engine)
    assert violation.cycle == 9 and gate in str(violation)
