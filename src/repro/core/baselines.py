"""Baseline protection engines: UnsafeBaseline and SecureBaseline (Table 2)."""

from __future__ import annotations

from repro.core.attack_model import AttackModel, vp_obstacle
from repro.pipeline.dyninst import DynInst
from repro.pipeline.engine_api import ProtectionEngine


class UnsafeBaseline(ProtectionEngine):
    """An unmodified, insecure processor (Table 2 row 1).

    Identical to the default :class:`ProtectionEngine` but named explicitly
    for the configuration registry.
    """

    name = "UnsafeBaseline"


class SecureBaseline(ProtectionEngine):
    """Delay loads and stores until they reach the visibility point.

    This is the paper's SecureBaseline (Table 2): the same protection scope
    as SPT — both speculatively-accessed data and non-speculative secrets —
    achieved by brute force (NDA-style delayed transmitters), with branch
    resolution likewise applied only at the VP so implicit channels carry no
    speculative information.
    """

    name = "SecureBaseline"
    protects_speculative_data = True

    def __init__(self, model: AttackModel):
        super().__init__()
        self.model = model
        self.vp_predicate = vp_obstacle(model)

    def may_compute_address(self, di: DynInst) -> bool:
        return di.reached_vp

    def may_resolve(self, di: DynInst) -> bool:
        return di.reached_vp

    def skip_cache_for_forwarding(self, load: DynInst, store: DynInst) -> bool:
        # A load only issues at the VP, where every older store address is
        # architecturally determined; the forwarding decision is public.
        return True
