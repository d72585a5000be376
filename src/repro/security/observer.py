"""Attacker observation model.

The observer records everything a microarchitectural attacker could possibly
see, as a strict superset of the channels enumerated in Section 2.1 of the
paper:

* every cache access issued by a load (including transient, doomed-to-squash
  loads — the Spectre channel), with its cycle, line address and hit level;
* every store address computation and retirement-time cache write;
* every branch-predictor update (resolution effects, the implicit channel);
* every squash, with its cycle;
* total execution time.

Security tests assert *trace equivalence*: for a program whose secret is a
non-speculative secret, the full observer trace must be identical across
secret values under every secure configuration.  This is stronger than the
paper's penetration test (which checks a specific exfiltration gadget).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Observation:
    """One attacker-visible event."""

    cycle: int
    kind: str          # "load", "store-addr", "store-write", "bp-update", "squash"
    value: int         # line address, branch pc, ...
    detail: str = ""   # hit level / taken-ness


class Observer:
    """Accumulates attacker-visible events during one simulation."""

    def __init__(self):
        self.events: list[Observation] = []

    def load_access(self, cycle: int, line: int, level: str) -> None:
        self.events.append(Observation(cycle, "load", line, level))

    def store_address(self, cycle: int, line: int) -> None:
        self.events.append(Observation(cycle, "store-addr", line))

    def store_write(self, cycle: int, line: int, level: str) -> None:
        self.events.append(Observation(cycle, "store-write", line, level))

    def predictor_update(self, cycle: int, pc: int, taken: bool) -> None:
        self.events.append(Observation(cycle, "bp-update", pc,
                                       "T" if taken else "N"))

    def squash(self, cycle: int, pc: int) -> None:
        self.events.append(Observation(cycle, "squash", pc))

    # ------------------------------------------------------------- analysis
    def lines_touched(self, kind: Optional[str] = None) -> set:
        """Set of cache lines appearing in the trace (Flush+Reload view)."""
        kinds = {"load", "store-write"} if kind is None else {kind}
        return {e.value for e in self.events if e.kind in kinds}

    def trace(self) -> tuple:
        """The full trace as a hashable tuple (for equality comparisons)."""
        return tuple(self.events)

    def __len__(self) -> int:
        return len(self.events)


def traces_equal(a: Observer, b: Observer) -> bool:
    """Whether two runs are indistinguishable to the attacker."""
    return a.trace() == b.trace()


# --------------------------------------------------------------- channels
#
# The trace decomposes into named side channels so a divergence can be
# triaged: two runs may agree on every cache line yet differ in hit levels
# (an eviction channel) or only in event cycles (a pure timing channel).
# ``channel_digests`` reduces each projection to a content hash, which is
# what the fuzzing oracle compares — digests survive pickling, caching and
# process boundaries without shipping whole traces around.

CHANNELS = ("load-line", "load-level", "store-addr", "store-write",
            "bp-update", "squash", "timing")

_CHANNEL_PROJECTIONS = {
    "load-line": lambda e: e.value if e.kind == "load" else None,
    "load-level": lambda e: e.detail if e.kind == "load" else None,
    "store-addr": lambda e: e.value if e.kind == "store-addr" else None,
    "store-write": lambda e: ((e.value, e.detail)
                              if e.kind == "store-write" else None),
    "bp-update": lambda e: ((e.value, e.detail)
                            if e.kind == "bp-update" else None),
    "squash": lambda e: ((e.cycle, e.value)
                         if e.kind == "squash" else None),
}


def channel_projection(observer: Observer, channel: str) -> tuple:
    """The sub-trace a single channel exposes, as a hashable tuple."""
    if channel == "timing":
        return tuple(e.cycle for e in observer.events)
    project = _CHANNEL_PROJECTIONS[channel]
    return tuple(p for p in map(project, observer.events) if p is not None)


def channel_digests(observer: Observer,
                    total_cycles: Optional[int] = None) -> dict:
    """Per-channel content hashes of one run's attacker-visible trace.

    ``total_cycles`` folds the run's overall execution time into the
    ``timing`` channel (two traces with identical events can still differ
    in when the program halts).
    """
    digests = {}
    for channel in CHANNELS:
        payload = repr(channel_projection(observer, channel))
        if channel == "timing" and total_cycles is not None:
            payload += f"|total={total_cycles}"
        digests[channel] = hashlib.sha256(payload.encode()).hexdigest()
    return digests


def differing_channels(a: dict, b: dict) -> list:
    """Channels whose digests differ between two runs (trace order)."""
    return [c for c in CHANNELS if a.get(c) != b.get(c)]


def differing_events(a: Observer, b: Observer, limit: int = 10) -> list:
    """First few positions where two traces diverge (diagnostics)."""
    differences = []
    for index, (ea, eb) in enumerate(zip(a.events, b.events)):
        if ea != eb:
            differences.append((index, ea, eb))
            if len(differences) >= limit:
                return differences
    if len(a.events) != len(b.events):
        differences.append((min(len(a.events), len(b.events)), "length",
                            (len(a.events), len(b.events))))
    return differences
