"""Engine groups: one core run for several protection engines that agree.

The core depends on its engine only through the answers to four queries —
``may_compute_address``, ``may_resolve``, ``skip_cache_for_forwarding``
and the stall accountant's ``untaint_pending`` — and through the engine's
bumps of the activity counter.  Engines that advance the same visibility
point (one attack model's predicate) and give the same answers therefore
drive one core through the same cycles, and each would see exactly the
machine it sees in its own run.

An :class:`EngineGroup` is an engine made of such members.  It answers
every query with its first member's (the lead's) answer and asks every
other member too; a member whose answer differs leaves the group at that
query and hears no more events.  Events go to every member still in the
group; the VP advances once per cycle for all of them, in the group's
inherited :meth:`~repro.pipeline.engine_api.ProtectionEngine.tick`, whose
:meth:`EngineGroup.step` runs each member's ``step``, never a member's
``tick``.  A cycle in which any member bumped the activity counter is
stepped, also for members that would have skipped it: under the
fast-forward contract of :mod:`repro.pipeline.core` stepping a quiescent
cycle is exact.  Once only the lead is left, the group hands
the core to it.

Members still in the group when the run ends take its results with their
own engine metrics, byte-identical to their own runs.
:func:`repro.harness.runner.simulate_group` decides which configurations
form a group (those whose engines advance one visibility point, with no
sanitizer attached; the check in :class:`EngineGroup` is a guard) and
runs the members that left in a later group.  This rests on engines
writing no shared state besides the activity counter and the VP frontier
(``SPTEngine`` keeps its entry bits in its own slot-indexed masks);
``ReferenceSPTEngine`` keeps its bits on the ``DynInst`` and joins only
the full sanitizer's group, behind an ``SPTEngine`` lead.
"""

from __future__ import annotations

from repro.pipeline.engine_api import ProtectionEngine

# Event hooks the group forwards to every member that overrides them.
_EVENTS = ("on_rename", "on_load_data", "on_store_retire", "on_l1_evict",
           "on_squash", "on_retire", "step")


class EngineGroup(ProtectionEngine):
    """Several engines sharing one core, answering as the first one does.

    ``members`` is the lead followed by the members still agreeing with
    it; ``departures`` lists ``(engine, query, cycle, args)`` for each
    member that left, in the order they left.
    """

    protects_speculative_data = True

    def __init__(self, engines: list):
        super().__init__()
        lead = engines[0]
        if lead.vp_predicate is None or any(
                engine.vp_predicate is not lead.vp_predicate
                for engine in engines):
            raise ValueError("grouped engines must advance one visibility "
                             "point")
        self.lead = lead
        self.others = list(engines[1:])
        self.name = lead.name
        self.vp_predicate = lead.vp_predicate
        self.departures: list = []
        self._bind()

    @property
    def members(self) -> list:
        return [self.lead, *self.others]

    def _bind(self) -> None:
        """Collect each event's bound hooks of the current members,
        leaving out the no-op defaults."""
        for event in _EVENTS:
            default = getattr(ProtectionEngine, event)
            hooks = []
            for engine in self.members:
                hook = getattr(engine, event)
                if getattr(hook, "__func__", None) is not default:
                    hooks.append(hook)
            setattr(self, f"_{event}", hooks)

    def attach(self, core) -> None:
        super().attach(core)
        for engine in self.members:
            engine.attach(core)

    def metrics_tree(self):
        return self.lead.metrics_tree()

    # ------------------------------------------------------------- queries
    def _poll(self, query: str, answer: bool, *args) -> bool:
        """Ask the other members ``query``; those whose answer differs
        from the lead's ``answer`` leave the group."""
        leaving = [engine for engine in self.others
                   if getattr(engine, query)(*args) != answer]
        if leaving:
            core = self.core
            for engine in leaving:
                self.others.remove(engine)
                self.departures.append((engine, query, core.cycle, args))
            self._bind()
            if not self.others:
                # A group of one is its lead: the core asks it directly.
                core.engine = self.lead
        return answer

    def may_compute_address(self, di) -> bool:
        answer = self.lead.may_compute_address(di)
        if self.others:
            self._poll("may_compute_address", answer, di)
        return answer

    def may_resolve(self, di) -> bool:
        answer = self.lead.may_resolve(di)
        if self.others:
            self._poll("may_resolve", answer, di)
        return answer

    def skip_cache_for_forwarding(self, load, store) -> bool:
        answer = self.lead.skip_cache_for_forwarding(load, store)
        if self.others:
            self._poll("skip_cache_for_forwarding", answer, load, store)
        return answer

    def untaint_pending(self, preg: int) -> bool:
        answer = self.lead.untaint_pending(preg)
        if self.others:
            self._poll("untaint_pending", answer, preg)
        return answer

    # -------------------------------------------------------------- events
    def on_rename(self, di) -> None:
        for hook in self._on_rename:
            hook(di)

    def on_load_data(self, di) -> None:
        for hook in self._on_load_data:
            hook(di)

    def on_store_retire(self, di) -> None:
        for hook in self._on_store_retire:
            hook(di)

    def on_l1_evict(self, line: int) -> None:
        for hook in self._on_l1_evict:
            hook(line)

    def on_squash(self, squashed: list) -> None:
        for hook in self._on_squash:
            hook(squashed)

    def on_retire(self, di) -> None:
        for hook in self._on_retire:
            hook(di)

    def step(self, newly_vp: list) -> None:
        for step in self._step:
            step(newly_vp)
