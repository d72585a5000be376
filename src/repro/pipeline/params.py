"""Machine parameters (paper Table 1).

The defaults mirror the simulated machine of the paper: 8-wide
fetch/decode/issue/commit, 192-entry ROB, 32/32 LQ/SQ entries, 16 MSHRs, and
the L1D/L2/L3/DRAM latencies of Table 1.  The LTAGE predictor of the paper is
substituted by a gshare + BTB + RAS predictor (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.memory.hierarchy import HierarchyParams


@dataclass
class MachineParams:
    """All knobs of the simulated core."""

    fetch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    rob_entries: int = 192
    rs_entries: int = 96
    lq_entries: int = 32
    sq_entries: int = 32
    num_phys_regs: int = 300
    frontend_delay: int = 3          # fetch-to-rename latency (cycles)
    redirect_penalty: int = 2        # extra bubble after squash
    # Branch predictor.
    bp_history_bits: int = 12
    btb_entries: int = 512
    ras_entries: int = 16
    # Memory.
    hierarchy: HierarchyParams = field(default_factory=HierarchyParams)
    memory_dependence_speculation: bool = False
    # Uninitialised-memory policy (pitchfork's SpectreOOBState): when set,
    # bytes that were never written read as a deterministic keyed hash of
    # (seed, address) instead of zero — "uninitialised memory is secret".
    # Two runs differing only in the seed must then produce identical
    # attacker-visible traces unless uninitialised bytes leak.
    uninit_secret_seed: Optional[int] = None
    # SPT (paper Table 1: untaint broadcast width 3).
    untaint_broadcast_width: int = 3
    # Simulation safety net.
    max_cycles: int = 5_000_000
    # Lockstep invariant sanitizer (repro.check): "off" (no checking, zero
    # overhead), "commit" (retire-time lockstep with the golden
    # interpreter), or "full" (adds the per-cycle window scans).
    check_level: str = "off"

    def validate(self) -> None:
        if self.rob_entries <= 0 or self.rs_entries <= 0:
            raise ValueError("ROB/RS must be non-empty")
        if self.num_phys_regs < 32 + self.rob_entries // 2:
            raise ValueError("too few physical registers for the ROB size")
        if self.untaint_broadcast_width < 1:
            raise ValueError("untaint broadcast width must be >= 1")
        if self.check_level not in ("off", "commit", "full"):
            raise ValueError(
                f"check_level must be off, commit, or full "
                f"(got {self.check_level!r})")
        if self.uninit_secret_seed is not None and (
                not isinstance(self.uninit_secret_seed, int)
                or self.uninit_secret_seed < 0):
            raise ValueError("uninit_secret_seed must be a non-negative int")


def table1_text() -> str:
    """Render the simulated-machine table (paper Table 1 analogue)."""
    params = MachineParams()
    h = params.hierarchy
    rows = [
        ("Pipeline", f"{params.fetch_width} fetch/decode/issue/commit, "
                     f"{params.sq_entries}/{params.lq_entries} SQ/LQ entries, "
                     f"{params.rob_entries} ROB, {h.mshrs} MSHRs, "
                     f"gshare({params.bp_history_bits}b)+BTB+RAS predictor"),
        ("L1 D-Cache", f"{h.l1_params.size_bytes // 1024} KB, "
                       f"{h.l1_params.line_bytes} B line, {h.l1_params.ways}-way, "
                       f"{h.l1_params.latency}-cycle latency"),
        ("L2 Cache", f"{h.l2_params.size_bytes // 1024} KB, "
                     f"{h.l2_params.line_bytes} B line, {h.l2_params.ways}-way, "
                     f"{h.l2_params.latency}-cycle latency"),
        ("L3 Cache", f"{h.l3_params.size_bytes // 1024 // 1024} MB, "
                     f"{h.l3_params.line_bytes} B line, {h.l3_params.ways}-way, "
                     f"{h.l3_params.latency}-cycle latency"),
        ("DRAM", f"{h.dram_latency} cycles after L3"),
        ("Untaint broadcast width (SPT only)", str(params.untaint_broadcast_width)),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
