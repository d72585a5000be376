"""Lockstep invariant sanitizer (``repro.check``).

Runs the out-of-order pipeline in lockstep with the golden ISA interpreter
and evaluates a registry of cycle-level microarchitectural invariants:
commit-order architectural equality, ROB age ordering, squash completeness,
store-to-load forwarding against golden memory, SPT taint-algebra
monotonicity, visibility-point legality, delayed-transmitter gating, and
shadow-L1 residency.  Checking is off by default (``MachineParams.
check_level="off"`` leaves the core's hook attribute ``None``) and is
enabled per run through ``check_level="commit"`` (retire-time lockstep
only) or ``check_level="full"`` (everything, including the per-cycle
scans).

A violated invariant raises :class:`~repro.check.violation.
InvariantViolation` carrying the invariant id, cycle, instruction, and a
window of recent pipeline events.  The ``repro check`` CLI runs every
(workload, configuration, model) cell of a grid as the default run at the
commit level and as the reference run at the full level, requires the
two outcomes to be bit-identical, and reports per-invariant evaluation
counts of both runs.
"""

from repro.check.invariants import CHECK_LEVELS, INVARIANTS, InvariantSpec
from repro.check.sanitizer import Sanitizer
from repro.check.violation import InvariantViolation

__all__ = [
    "CHECK_LEVELS",
    "INVARIANTS",
    "InvariantSpec",
    "InvariantViolation",
    "Sanitizer",
]
