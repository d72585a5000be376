"""Protection-engine interface between the OoO core and the taint engines.

The pipeline is agnostic of *why* an instruction is delayed: it consults the
attached :class:`ProtectionEngine` at three gating points (transmitter address
computation, branch resolution, store-to-load-forwarding visibility) and
notifies it of every microarchitectural event it needs for taint tracking.
The engines in :mod:`repro.core` (STT, SPT, baselines) subclass this.

Each engine owns a :class:`~repro.obs.metrics.Metrics` node; the core grafts
it into the run's metrics hierarchy under ``engine.`` when the simulation
finishes.  Engines keep no per-cycle counters of their own: the core counts
every gate refusal (``protection.*_delayed_cycles``), and an engine with
state to report (SPT's untaint machinery, STT's delayed checks) overrides
:meth:`metrics_tree` to fold it in at collection time.

The core fast-forwards over cycles in which nothing bumped
``core._activity``.  An engine must therefore bump it in every cycle in
which its own state moves (SPT's untaint requests and broadcasts), and in
every cycle in which a gating answer could change without any machine
state moving (a gate that opens on a cycle count).  A skipped cycle repeats
the last stepped cycle's gate refusals, which the core replays into its
hold counters.

The core owns its engine; the engine reaches back to the core only through
a weak reference (:attr:`ProtectionEngine.core`), so a finished simulation
holds no reference cycle and is freed as soon as its last user drops it.

An engine writes no core or ``DynInst`` state besides the activity counter
and the VP frontier, except :class:`~repro.core.spt.ReferenceSPTEngine`,
which keeps its per-entry bits on the ``DynInst``.  That is what lets
several engines share one core (:mod:`repro.pipeline.group`).  The
frontier advances in one place, :meth:`ProtectionEngine.tick`; an engine
adds its end-of-cycle rules in :meth:`ProtectionEngine.step`.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import Metrics

if TYPE_CHECKING:
    from repro.pipeline.core import OoOCore
    from repro.pipeline.dyninst import DynInst


def _detached() -> None:
    return None


class ProtectionEngine:
    """Default engine: no protection (UnsafeBaseline).

    Once its core is gone, an engine may be read only for its own counters
    and metrics (:meth:`metrics_tree`, SPT's ``untaint`` ledger): every hook
    that consults the machine goes through :attr:`core`, which is then None.
    """

    name = "UnsafeBaseline"
    protects_speculative_data = False
    # The attack model's visibility-point obstacle predicate, or None for
    # engines that never advance the VP frontier (UnsafeBaseline).  Public
    # so external observers — the repro.check sanitizer in particular — can
    # recompute the frontier independently of advance_vp.
    vp_predicate = None

    def __init__(self) -> None:
        self._core_ref = _detached
        self.metrics = Metrics("engine")

    @property
    def core(self) -> Optional["OoOCore"]:
        """The attached core; None before :meth:`attach` and after the core
        is freed (the core holds the only strong reference between them)."""
        return self._core_ref()

    def attach(self, core: "OoOCore") -> None:
        self._core_ref = weakref.ref(core)

    def metrics_tree(self) -> Metrics:
        """The engine's contribution to the run's metrics hierarchy.

        Idempotent: collection may happen more than once per run (e.g. a
        tracer building an intermediate result), so subclasses must only
        ``set``/``set_dist`` derived values, never accumulate here.
        """
        return self.metrics

    # ------------------------------------------------------------- gating
    def may_compute_address(self, di: "DynInst") -> bool:
        """May this load/store start executing (address calc, TLB, cache)?"""
        return True

    def may_resolve(self, di: "DynInst") -> bool:
        """May this control instruction apply its resolution effects?"""
        return True

    def skip_cache_for_forwarding(self, load: "DynInst", store: "DynInst") -> bool:
        """May a forwarded load skip its cache access?

        Returning False hides the forwarding decision (the load accesses the
        cache anyway and silently uses the forwarded value), which is STT's
        store-to-load-forwarding protection (paper Section 6.7).
        """
        return True

    # ----------------------------------------------------------- accounting
    def untaint_pending(self, preg: int) -> bool:
        """Is an untaint of ``preg`` queued behind the broadcast width?

        Consulted by the stall accountant to attribute cycles where the
        critical instruction waits on a register whose untaint sits in the
        (width-limited) broadcast queue.  Engines without a broadcast
        queue never stall on it.
        """
        return False

    # -------------------------------------------------------------- events
    def on_rename(self, di: "DynInst") -> None:
        """Instruction renamed: initialise its taint state."""

    def on_load_data(self, di: "DynInst") -> None:
        """Load data arrived (``di.result`` and ``di.address`` set)."""

    def on_store_retire(self, di: "DynInst") -> None:
        """Store wrote the L1D at retirement."""

    def on_l1_evict(self, line: int) -> None:
        """The L1D evicted ``line`` to make room for a fill."""

    def on_squash(self, squashed: list) -> None:
        """Instructions removed from the window (youngest first)."""

    def on_retire(self, di: "DynInst") -> None:
        """Instruction retired (left the window)."""

    def tick(self) -> None:
        """End-of-cycle hook, the one place the VP advances: an engine with
        a :attr:`vp_predicate` advances the frontier, then runs
        :meth:`step` over the instructions that newly reached the VP."""
        if self.vp_predicate is not None:
            self.step(self.core.advance_vp(self.vp_predicate))

    def step(self, newly_vp: list) -> None:
        """The end-of-cycle rules after the VP advanced (declassification,
        untaint rules).  Split from :meth:`tick` so that engines sharing a
        core (:class:`~repro.pipeline.group.EngineGroup`) advance the VP
        once per cycle and each run their rules."""
