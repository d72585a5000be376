"""Structured invariant-violation report.

An :class:`InvariantViolation` is the sanitizer's only failure mode: a
checked run either completes clean or raises one of these, carrying
everything a triage needs — the invariant id, the cycle, the offending
instruction, and a window of the pipeline events leading up to the
violation.  The exception pickles cleanly so it survives the process-pool
boundary of ``run_many`` (where it surfaces wrapped in a ``RunFailure``).
"""

from __future__ import annotations

from typing import Optional, Sequence


class InvariantViolation(AssertionError):
    """A cycle-level invariant failed during a checked simulation."""

    def __init__(self, invariant: str, cycle: int, message: str,
                 inst: Optional[str] = None,
                 window: Optional[Sequence[str]] = None):
        self.invariant = invariant
        self.cycle = cycle
        self.inst = inst
        self.window = list(window or ())
        self.message = message
        super().__init__(self._render())

    def _render(self) -> str:
        lines = [f"[{self.invariant}] cycle {self.cycle}: {self.message}"]
        if self.inst:
            lines.append(f"  instruction: {self.inst}")
        if self.window:
            lines.append("  recent events:")
            lines.extend(f"    {event}" for event in self.window)
        return "\n".join(lines)

    def __reduce__(self):
        # Exceptions with non-trivial __init__ signatures need an explicit
        # reduce to cross the process-pool pickle boundary.
        return (type(self), (self.invariant, self.cycle, self.message,
                             self.inst, self.window))
