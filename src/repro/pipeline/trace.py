"""Pipeline tracing: per-instruction lifecycle capture and rendering.

Wraps an :class:`~repro.pipeline.core.OoOCore` run, capturing every dynamic
instruction (including squashed wrong-path ones) with its lifecycle
timestamps, and renders a text pipeline diagram::

    seq  pc  instruction          F....D..I...C.....R
    #12   4  ld a1, 0(a0)         |F..D.I......C...R|

Legend: F fetch, D dispatch/rename, I issue, C complete, R retire,
X squashed.  Useful for debugging protection-policy delays: a long D->I gap
on a load is a delayed transmitter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pipeline.core import OoOCore, SimResult
from repro.pipeline.dyninst import DynInst


@dataclass
class TraceEntry:
    """Lifecycle of one dynamic instruction."""

    seq: int
    pc: int
    text: str
    fetch: int
    dispatch: int
    issue: int
    complete: int
    retire: int
    squashed: bool

    @classmethod
    def from_dyninst(cls, di: DynInst) -> "TraceEntry":
        return cls(di.seq, di.pc, str(di.inst), di.fetch_cycle,
                   di.dispatch_cycle, di.issue_cycle, di.complete_cycle,
                   di.retire_cycle, di.squashed)

    @property
    def issue_delay(self) -> int:
        """Cycles between dispatch and issue (protection delays show here)."""
        if self.issue < 0 or self.dispatch < 0:
            return 0
        return self.issue - self.dispatch


class PipelineTracer:
    """Runs a core while recording every dynamic instruction's lifecycle.

    The squash sink puts the core in stepped mode, which records every
    lifecycle timestamp and never recycles an instruction the tracer has
    yet to record.  The run is the core's own :meth:`OoOCore.run`, with a
    harvest after every cycle: a traced run halts, stops at the budget and
    raises (the cycle cap, the deadlock detector) exactly as an untraced
    one does, and keeps the entries harvested up to a raise.
    """

    def __init__(self, core: OoOCore, max_entries: int = 10_000):
        self.core = core
        self.max_entries = max_entries
        self.entries: list[TraceEntry] = []
        self._seen: set = set()
        self._squashed: list[DynInst] = []
        core.squash_sink = self._squashed

    def run(self, max_instructions: int = 100_000) -> SimResult:
        core = self.core
        # Hooked for this run only: a standing bound method would make the
        # core and its tracer a reference cycle.
        core.cycle_hook = self._harvest
        try:
            return core.run(max_instructions)
        finally:
            core.cycle_hook = None
            self._harvest(final=True)

    def _harvest(self, final: bool = False) -> None:
        if len(self.entries) >= self.max_entries:
            return
        for di in self._squashed:
            if di.seq not in self._seen:
                self._record(di)
        self._squashed.clear()
        for di in list(self.core.in_flight()):
            if (di.retired or di.squashed or final) and di.seq not in self._seen:
                self._record(di)
        # Retired instructions leave the window; catch them via the ROB head
        # region before compaction by scanning the raw list.
        for di in self.core.rob[:self.core.rob_head]:
            if di.seq not in self._seen:
                self._record(di)

    def _record(self, di: DynInst) -> None:
        self._seen.add(di.seq)
        self.entries.append(TraceEntry.from_dyninst(di))

    # ------------------------------------------------------------- rendering
    def render(self, first: int = 0, count: int = 40, width: int = 64) -> str:
        """Text pipeline diagram for ``count`` entries starting at ``first``."""
        entries = sorted(self.entries, key=lambda e: e.seq)[first:first + count]
        if not entries:
            return "(no trace entries)"
        start = min(e.fetch for e in entries if e.fetch >= 0)
        lines = [f"{'seq':>6} {'pc':>5}  {'instruction':<28} "
                 f"pipeline (cycle {start}+)"]
        for entry in entries:
            lane = self._lane(entry, start, width)
            marker = "X" if entry.squashed else " "
            lines.append(f"{entry.seq:>6} {entry.pc:>5}{marker} "
                         f"{entry.text:<28} {lane}")
        return "\n".join(lines)

    @staticmethod
    def _lane(entry: TraceEntry, start: int, width: int) -> str:
        lane = ["."] * width
        def mark(cycle: int, symbol: str) -> None:
            if cycle >= 0:
                index = cycle - start
                if 0 <= index < width:
                    lane[index] = symbol
                elif index >= width:
                    lane[width - 1] = ">"     # event beyond the window
        mark(entry.fetch, "F")
        mark(entry.dispatch, "D")
        mark(entry.issue, "I")
        mark(entry.complete, "C")
        mark(entry.retire, "R")
        return "".join(lane)

    # ------------------------------------------------------------- analysis
    def delayed_transmitters(self, threshold: int = 5) -> list:
        """Entries whose dispatch-to-issue gap exceeds ``threshold`` cycles."""
        return [e for e in self.entries
                if e.issue_delay > threshold and not e.squashed]

def trace_program(program, engine=None, params=None,
                  max_instructions: int = 50_000) -> PipelineTracer:
    """Convenience: build a core, trace a full run, return the tracer."""
    tracer = PipelineTracer(OoOCore(program, engine=engine, params=params))
    tracer.run(max_instructions=max_instructions)
    return tracer
