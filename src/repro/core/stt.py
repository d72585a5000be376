"""Speculative Taint Tracking (STT) engine (paper Section 2.2, [83]).

STT protects *speculatively-accessed* data only: the output of every load is
s-tainted until the load reaches the visibility point of the attack model.
Taint propagates through register dataflow via the youngest-root-of-taint
(YRoT) scheme: each physical register remembers the youngest access
instruction (load) its value transitively depends on, and is s-tainted
exactly while that root has not reached the VP.  Because the VP frontier is a
program-order prefix, the youngest root reaching the VP implies all older
roots have too — untainting is a single O(1) check.

Protection policy: delay transmitters whose address operand is s-tainted and
delay branch-resolution effects while the predicate is s-tainted (blocking
both explicit and implicit channels).  Store-to-load forwarding is hidden by
always performing the cache access (Section 6.7's starting point).
"""

from __future__ import annotations

from typing import Optional

from repro.core.attack_model import AttackModel, vp_obstacle
from repro.obs.metrics import Metrics
from repro.pipeline.dyninst import DynInst
from repro.pipeline.engine_api import ProtectionEngine


class STTEngine(ProtectionEngine):
    """STT: protects speculatively-accessed data over all covert channels."""

    protects_speculative_data = True

    def __init__(self, model: AttackModel):
        super().__init__()
        self.model = model
        self.name = "STT"
        self.vp_predicate = vp_obstacle(model)
        # Physical register -> youngest root of taint, stored as
        # (seq, load DynInst).  The seq tag makes the lazy liveness check
        # safe under the core's DynInst recycling: a squashed root
        # may be recycled into a brand-new instruction (``squashed`` back to
        # False), but its seq changes — seqs are never reused — so a stale
        # entry can never masquerade as a live root.
        self._root_of: dict[int, tuple[int, DynInst]] = {}

    # --------------------------------------------------------------- s-taint
    def _live_root(self, preg: int) -> Optional[DynInst]:
        entry = self._root_of.get(preg)
        if entry is None:
            return None
        seq, root = entry
        if (root.seq != seq or root.reached_vp or root.squashed
                or root.retired):
            return None
        return root

    def s_tainted(self, preg: int) -> bool:
        return preg >= 0 and self._live_root(preg) is not None

    def on_rename(self, di: DynInst) -> None:
        if di.is_load:
            # Output of an access instruction: s-tainted until the load's VP.
            if di.prd >= 0:
                self._root_of[di.prd] = (di.seq, di)
            return
        root: Optional[DynInst] = None
        for preg in (di.prs1, di.prs2):
            if preg < 0:
                continue
            candidate = self._live_root(preg)
            if candidate is not None and (root is None
                                          or candidate.seq > root.seq):
                root = candidate
        if di.prd >= 0:
            if root is None:
                self._root_of.pop(di.prd, None)
            else:
                self._root_of[di.prd] = (root.seq, root)

    # ---------------------------------------------------------------- gating
    def may_compute_address(self, di: DynInst) -> bool:
        return not self.s_tainted(di.prs1)

    def may_resolve(self, di: DynInst) -> bool:
        return not (self.s_tainted(di.prs1)
                    or (di.inst.info.reads_rs2 and self.s_tainted(di.prs2)))

    def skip_cache_for_forwarding(self, load: DynInst, store: DynInst) -> bool:
        # Hide the forwarding decision: always perform the cache access
        # unless the implicit branch is public (all involved addresses
        # s-untainted).  Conservative: we only skip when both instructions
        # are past the VP.
        return load.reached_vp and store.reached_vp

    # ------------------------------------------------------------ reporting
    def metrics_tree(self) -> Metrics:
        """Report the core's hold counts as STT's delayed checks.

        The core consults each gate at one site and counts every refusal
        (``protection.*_delayed_cycles``, replayed over fast-forwarded
        spans), so those counters are STT's refusal counts.  A path is set
        only once its count is non-zero; after the core is freed the last
        collection stands.
        """
        core = self.core
        if core is not None:
            for key, count in (
                    ("delayed_transmitter_checks", core._transmitters_delayed),
                    ("delayed_resolution_checks", core._resolutions_delayed)):
                if count:
                    self.metrics.set(key, count)
        return self.metrics
