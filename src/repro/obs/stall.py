"""Stall-cause cycle accounting (the paper's Figures 7-9, explained).

Every core cycle is attributed to exactly one cause, so the per-cause
cycle counts always sum to ``sim.cycles`` — the identity the test suite
asserts on every cell of a Figure-7 sweep.  The taxonomy mirrors where
SPT's overhead goes in the paper's evaluation:

=========================== ==================================================
``retiring``                at least one instruction retired this cycle, or
                            the oldest in-flight instruction was executing
                            normally (useful work in flight)
``fetch-starved``           empty window, frontend not supplying instructions
``rob-full``                dispatch blocked on ROB (or physical-register)
                            occupancy while the window head was healthy
``rs-full``                 dispatch blocked on reservation-station occupancy
``lsq-full``                dispatch blocked on LQ/SQ occupancy
``memory-miss``             the critical (oldest blocking) instruction was a
                            load in memory flight or blocked on
                            disambiguation / MSHRs
``squash-recovery``         empty window inside the redirect + refill shadow
                            of a squash
``engine-delayed-transmitter``  the critical instruction was a transmitter
                            the protection engine refused to issue
``engine-delayed-resolution``   the critical instruction was a resolved
                            branch the engine refused to apply
``untaint-broadcast-wait``  the critical instruction waited on an operand
                            whose untaint sat in SPT's broadcast queue
=========================== ==================================================

Attribution is commit-centric: a non-retiring cycle is blamed on the
oldest in-flight instruction, following its blocking operand through the
producer chain (bounded) until a terminal cause is found; cycles with a
healthy head fall back to the recorded dispatch backpressure cause, then
to ``retiring`` (execution latency in flight).  See DESIGN.md for the
mapping onto the paper's Figure 8 untaint-event breakdown.
"""

from __future__ import annotations

import enum
from typing import Optional


class StallCause(enum.IntEnum):
    """Exclusive per-cycle attribution buckets (list-index friendly)."""

    RETIRING = 0
    FETCH_STARVED = 1
    ROB_FULL = 2
    RS_FULL = 3
    LSQ_FULL = 4
    MEMORY_MISS = 5
    SQUASH_RECOVERY = 6
    DELAYED_TRANSMITTER = 7
    DELAYED_RESOLUTION = 8
    UNTAINT_BROADCAST_WAIT = 9

    @property
    def key(self) -> str:
        return _KEYS[self]


_KEYS = [
    "retiring", "fetch-starved", "rob-full", "rs-full", "lsq-full",
    "memory-miss", "squash-recovery", "engine-delayed-transmitter",
    "engine-delayed-resolution", "untaint-broadcast-wait",
]

STALL_CAUSES = list(StallCause)
NUM_CAUSES = len(STALL_CAUSES)

# Bound on the producer-chain walk; dependence chains through the blocking
# operand are short in practice (they terminate at a load, a delayed
# transmitter, or an executing instruction within a few hops).
_MAX_CHAIN = 16


def attribute_cycle(core) -> StallCause:
    """Attribute one non-retiring cycle of ``core`` to a stall cause.

    Called by the core at the end of every cycle that retired nothing
    (retiring cycles are counted inline — the common, cheap case).
    """
    rob = core.rob
    head = core.rob_head
    if head >= len(rob):
        # Empty window: either the squash shadow or a starved frontend.
        recovery = core.params.redirect_penalty + core.params.frontend_delay
        if core.cycle <= core.last_squash_cycle + recovery:
            return StallCause.SQUASH_RECOVERY
        return StallCause.FETCH_STARVED
    cause = _classify_chain(core, rob[head])
    if cause is not None:
        return cause
    if core.dispatch_block >= 0:
        return StallCause(core.dispatch_block)
    # Healthy head in normal execution flight: useful work, no stall.
    return StallCause.RETIRING


def _classify_chain(core, di) -> Optional[StallCause]:
    """Follow the blocking-operand chain from ``di`` to a terminal cause."""
    engine = core.engine
    ready = core.rename.ready
    for _ in range(_MAX_CHAIN):
        if (di.is_predicted_control and di.complete
                and not di.resolution_applied):
            if di.resolution_delayed:
                # More specific than "the engine said no": the predicate's
                # untaint is already decided and sits in the broadcast
                # queue, so the width limit is what the cycle waits on.
                if _waits_on_broadcast(engine, di):
                    return StallCause.UNTAINT_BROADCAST_WAIT
                return StallCause.DELAYED_RESOLUTION
            return None     # one-resolution-per-cycle contention
        if not di.issued:
            blocked = -1
            prs1 = di.prs1
            if prs1 >= 0 and not ready[prs1]:
                blocked = prs1
            elif not di.is_store:
                prs2 = di.prs2
                if prs2 >= 0 and not ready[prs2]:
                    blocked = prs2
            if blocked < 0:
                # Operands ready but unissued: the engine held it back, or
                # plain issue-width contention (no stall cause).
                if di.engine_delayed:
                    if _waits_on_broadcast(engine, di):
                        return StallCause.UNTAINT_BROADCAST_WAIT
                    return StallCause.DELAYED_TRANSMITTER
                return None
            if engine.untaint_pending(blocked):
                return StallCause.UNTAINT_BROADCAST_WAIT
            producer = _producer_of(core, blocked, di.seq)
            if producer is None:
                return None
            di = producer
            continue
        if di.is_load:
            if not di.mem_complete:
                # Address computed (or computing) but the data has not
                # arrived: cache/DRAM latency, MSHR stalls, or conservative
                # disambiguation against older stores.
                return StallCause.MEMORY_MISS
            return None
        if di.is_store and not di.complete:
            prs2 = di.prs2
            if prs2 >= 0 and not ready[prs2]:
                if engine.untaint_pending(prs2):
                    return StallCause.UNTAINT_BROADCAST_WAIT
                producer = _producer_of(core, prs2, di.seq)
                if producer is None:
                    return None
                di = producer
                continue
            return None
        return None          # ALU/branch execution latency in flight
    return None


def _waits_on_broadcast(engine, di) -> bool:
    """Is an engine-delayed instruction really waiting on the untaint
    broadcast queue?  True when the untaint of one of its source
    registers is already decided but stuck behind the broadcast width."""
    return ((di.prs1 >= 0 and engine.untaint_pending(di.prs1))
            or (di.prs2 >= 0 and engine.untaint_pending(di.prs2)))


def _producer_of(core, preg: int, younger_than: int):
    """The in-flight instruction producing ``preg`` (older than a seq)."""
    for di in core.rob[core.rob_head:]:
        if di.seq >= younger_than:
            break
        if di.prd == preg and not di.squashed:
            return di
    return None


def stall_breakdown(metrics) -> dict:
    """Per-cause cycle counts from a run's metrics tree:
    ``{cause-key: cycles}`` over all ten causes."""
    stalls = metrics.group("stalls")
    return {cause.key: int(stalls.get(cause.key, 0))
            for cause in STALL_CAUSES}
