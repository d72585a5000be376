"""Untaint-event taxonomy and counters (for Figure 8 / Figure 9)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class UntaintKind(enum.Enum):
    """Why a register became untainted.

    The kinds are exclusive, matching the breakdown of Figure 8: each
    register-untaint event is attributed to exactly one mechanism.
    PC-inferable outputs (Section 6.5) start untainted at rename, so no
    event counts them.
    """

    VP_TRANSMITTER = "vp-transmitter"   # operand declassified at transmitter VP
    VP_BRANCH = "vp-branch"             # operand declassified at branch VP
    FORWARD = "forward"                 # Section 6.6 forward rule
    BACKWARD = "backward"               # Section 6.6 backward rule
    SHADOW_L1 = "shadow-l1"             # load read untainted L1D bytes (6.8)
    SHADOW_MEM = "shadow-mem"           # same, full-memory shadow variant
    STL_FORWARD = "stl-forward"         # store-to-load forwarding fwd rule (6.7)
    STL_BACKWARD = "stl-backward"       # store-to-load forwarding bwd rule (6.7)


def log2_bucket(value: int) -> int:
    """Power-of-two histogram bucket: bucket ``k`` covers ``[2^(k-1), 2^k)``
    (bucket 0 is exactly zero).  Bounds histogram size for latencies that
    span five orders of magnitude."""
    return value.bit_length()


@dataclass
class UntaintStats:
    """Per-run untaint accounting."""

    by_kind: dict = field(default_factory=dict)
    # Histogram for Figure 9: untainting cycles by number of registers
    # untainted that cycle.  Ideal propagation records its fixed point's
    # width; bounded configurations record each cycle's broadcast.
    untaints_per_cycle: dict = field(default_factory=dict)
    # Taint-lifecycle histograms (log2 buckets): taint-to-untaint latency
    # per untaint rule, and time spent queued behind the broadcast width.
    latency_by_kind: dict = field(default_factory=dict)
    queue_wait: dict = field(default_factory=dict)
    broadcasts: int = 0
    broadcast_stall_cycles: int = 0     # cycles where pending > width

    def count(self, kind: UntaintKind, amount: int = 1) -> None:
        self.by_kind[kind] = self.by_kind.get(kind, 0) + amount

    def record_cycle_width(self, registers_untainted: int) -> None:
        if registers_untainted > 0:
            bucket = self.untaints_per_cycle
            bucket[registers_untainted] = bucket.get(registers_untainted, 0) + 1

    def record_latency(self, kind: UntaintKind, cycles: int) -> None:
        """Taint-to-untaint latency of one register, attributed to the rule
        that finally untainted it."""
        hist = self.latency_by_kind.setdefault(kind, {})
        bucket = log2_bucket(cycles)
        hist[bucket] = hist.get(bucket, 0) + 1

    def record_queue_wait(self, cycles: int) -> None:
        """Cycles one untaint request waited in the broadcast queue."""
        bucket = log2_bucket(cycles)
        self.queue_wait[bucket] = self.queue_wait.get(bucket, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.by_kind.values())

    def as_dict(self) -> dict:
        return {kind.value: count for kind, count in sorted(
            self.by_kind.items(), key=lambda item: item[0].value)}
