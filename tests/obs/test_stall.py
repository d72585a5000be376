"""Unit tests for stall-cause attribution (``repro.obs.stall``).

The engine-delay categories never dominate on the bundled workloads (the
visibility point usually releases the head before it stalls), so these
tests pin the classifier's behaviour with purpose-built gating engines
and micro-programs where the cause is unambiguous.
"""

from repro.isa.assembler import assemble
from repro.obs.stall import STALL_CAUSES, StallCause, stall_breakdown
from repro.pipeline.core import OoOCore
from repro.pipeline.engine_api import ProtectionEngine


class GateUntil(ProtectionEngine):
    """Refuses transmitter issue / branch resolution until a given cycle;
    optionally reports every source register's untaint as queued."""

    name = "GateUntil"

    def __init__(self, release_cycle: int, gate_address: bool = True,
                 gate_resolve: bool = False, pending: bool = False):
        super().__init__()
        self.release_cycle = release_cycle
        self.gate_address = gate_address
        self.gate_resolve = gate_resolve
        self.pending = pending

    def _released(self) -> bool:
        return self.core.cycle >= self.release_cycle

    def may_compute_address(self, di) -> bool:
        return self._released() if self.gate_address else True

    def may_resolve(self, di) -> bool:
        return self._released() if self.gate_resolve else True

    def untaint_pending(self, preg: int) -> bool:
        return self.pending and not self._released()

    def tick(self) -> None:
        # The gates open on a cycle count, not on a state change: report
        # activity until then, or fast-forward would jump past the release.
        if not self._released():
            self.core._activity += 1


LOAD_PROGRAM = """
    li a0, 0x100
    ld a1, 0(a0)
    halt
"""

BRANCH_PROGRAM = """
    li t0, 1
    beq t0, zero, skip
    li a0, 7
skip:
    halt
"""


def run_with(source: str, engine=None):
    core = OoOCore(assemble(source), engine=engine)
    sim = core.run(max_instructions=1000)
    assert sim.halted
    return sim


def breakdown_of(sim) -> dict:
    return stall_breakdown(sim.metrics)


def test_identity_on_micro_program():
    sim = run_with(LOAD_PROGRAM)
    bd = breakdown_of(sim)
    assert sum(bd.values()) == sim.cycles
    assert set(bd) == {cause.key for cause in STALL_CAUSES}


def test_gated_transmitter_attributed_to_engine_delay():
    baseline = run_with(LOAD_PROGRAM)
    gated = run_with(LOAD_PROGRAM, GateUntil(release_cycle=40))
    bd = breakdown_of(gated)
    delayed = bd[StallCause.DELAYED_TRANSMITTER.key]
    assert delayed > 10
    assert gated.cycles > baseline.cycles + 10
    assert sum(bd.values()) == gated.cycles
    # The compatibility counter agrees that the engine held issue back.
    assert gated.stats["transmitters_delayed_cycles"] >= delayed


def test_gated_transmitter_with_queued_untaint_is_broadcast_wait():
    gated = run_with(LOAD_PROGRAM,
                     GateUntil(release_cycle=40, pending=True))
    bd = breakdown_of(gated)
    # The finer-grained cause wins over the generic engine delay.
    assert bd[StallCause.UNTAINT_BROADCAST_WAIT.key] > 10
    assert bd[StallCause.DELAYED_TRANSMITTER.key] == 0


def test_gated_resolution_attributed_to_engine_delay():
    gated = run_with(BRANCH_PROGRAM,
                     GateUntil(release_cycle=40, gate_address=False,
                               gate_resolve=True))
    bd = breakdown_of(gated)
    assert bd[StallCause.DELAYED_RESOLUTION.key] > 10
    assert sum(bd.values()) == gated.cycles
    assert gated.stats["resolutions_delayed_cycles"] > 10


def test_gated_resolution_with_queued_untaint_is_broadcast_wait():
    gated = run_with(BRANCH_PROGRAM,
                     GateUntil(release_cycle=40, gate_address=False,
                               gate_resolve=True, pending=True))
    bd = breakdown_of(gated)
    assert bd[StallCause.UNTAINT_BROADCAST_WAIT.key] > 10
    assert bd[StallCause.DELAYED_RESOLUTION.key] == 0


def test_memory_miss_attribution():
    # A dependent-load chain keeps the head in memory flight.
    source = """
        li a0, 0x1000
        ld a1, 0(a0)
        ld a2, 0(a1)
        halt
    """
    sim = run_with(source)
    bd = breakdown_of(sim)
    assert bd[StallCause.MEMORY_MISS.key] > 0
    assert sum(bd.values()) == sim.cycles


def test_squash_recovery_attribution():
    # A data-dependent hard-to-predict exit forces at least one squash.
    source = """
        li t0, 5
        li t1, 0
    loop:
        addi t1, t1, 1
        addi t0, t0, -1
        bne t0, zero, loop
        halt
    """
    sim = run_with(source)
    assert sim.stats["squashes"] >= 1
    bd = breakdown_of(sim)
    assert bd[StallCause.SQUASH_RECOVERY.key] > 0
    assert sum(bd.values()) == sim.cycles


def test_backpressure_visible_on_real_workload():
    """Delay-everything protection turns into reservation-station pressure."""
    from repro.core.attack_model import AttackModel
    from repro.harness.runner import run_one

    result = run_one("djbsort", "SecureBaseline",
                     model=AttackModel.FUTURISTIC, max_instructions=3000)
    bd = stall_breakdown(result.metrics)
    assert bd[StallCause.RS_FULL.key] > 0
    assert sum(bd.values()) == result.cycles


def test_stall_breakdown_accepts_dict_and_metrics():
    sim = run_with(LOAD_PROGRAM)
    from_tree = stall_breakdown(sim.metrics)
    from_blob = stall_breakdown(sim.metrics.as_dict())
    assert from_tree == from_blob


def test_cause_keys_are_stable():
    # The keys are a serialisation format (BENCH snapshots, docs): renames
    # are schema changes, not refactors.
    assert [cause.key for cause in STALL_CAUSES] == [
        "retiring", "fetch-starved", "rob-full", "rs-full", "lsq-full",
        "memory-miss", "squash-recovery", "engine-delayed-transmitter",
        "engine-delayed-resolution", "untaint-broadcast-wait",
    ]
