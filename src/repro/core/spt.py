"""Speculative Privacy Tracking (SPT) — the paper's contribution (Sections 6-7).

SPT taints *everything* (all architectural registers and all memory start
tainted) and only untaints data it can prove the attacker can infer from the
non-speculative execution:

* **Declassification** (6.6): a transmitter or branch reaching the visibility
  point non-speculatively leaks its operands; they are untainted.
* **Forward/backward untaint rules** (6.6): applied locally to every window
  entry each cycle; newly untainted registers are broadcast with a limited
  *untaint broadcast width* (7.3), destinations before sources and older
  entries before younger ones, from a queue of registers pending broadcast.
* **PC-inferable outputs** (6.5): load-immediate results and link registers
  are untainted at rename (the ROB contents are public by Property 1).
* **Store-to-load forwarding** (6.7): untaint propagates across a forwarding
  pair only once the implicit branch is public (``STLPublic``), in both
  directions.
* **Shadow L1 / shadow memory** (6.8, 7.5): byte-granular taint for cached
  data; untainted store data and VP'd loads clear it, loads of untainted
  bytes produce untainted outputs.

Transmitters with tainted address operands and branches with tainted
predicates are delayed (the delayed-execution protection policy) until
untainted or at the VP.

Two engines compute the same behaviour over the machinery of
:class:`SPTBase` (the register taint vector, the broadcast queue, the
shadow and the reporting).  :class:`SPTEngine`, the engine every SPT
configuration of Table 2 builds, keeps each window entry's bits (taint,
declassified, STLPublic) in packed bitmasks indexed by the entry's window
slot, so the rules evaluate over the whole window in a few bitwise
operations, and it writes no ``DynInst`` field: engines sharing one core
(:mod:`repro.pipeline.group`) share no state.  :class:`ReferenceSPTEngine`
keeps the bits on the ``DynInst`` and applies the rules one entry at a
time; it is the reference the differential checks (``repro backend-diff``,
``tests/fastpath``) compare against.  The sanitizer reads either engine's
bits through :meth:`SPTBase.entry_bits`.

Both bump the core's activity counter at every taint-state mutation, so
the core's fast-forward never skips a cycle in which the engine would have
moved (see :mod:`repro.pipeline.core`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.attack_model import AttackModel, vp_obstacle
from repro.core.events import UntaintKind, UntaintStats
from repro.core.shadow_l1 import ShadowMode, ShadowTaint
from repro.core.taint_algebra import (PURE_KINDS, backward_untaints,
                                      forward_untaints_output,
                                      initial_output_taint, leaked_operands)
from repro.isa.opcodes import Kind
from repro.pipeline.dyninst import DynInst
from repro.pipeline.engine_api import ProtectionEngine
from repro.pipeline.tables import (F_BRANCH, F_INV_ALU, F_INV_MONO,
                                   F_JUMP_REG, F_LOAD, F_PC_INFERABLE, F_PURE,
                                   F_TRANSMITTER, lower_program)

# Newly-VP kinds the tick loop declassifies (Section 6.6).
_F_DECLASS = F_TRANSMITTER | F_BRANCH | F_JUMP_REG


class SPTBase(ProtectionEngine):
    """The SPT machinery both engines share.

    A subclass supplies the per-entry half: rename, the gates, the
    requests against entry bits, the rules (:meth:`step`) and the
    broadcast's entry clear (:meth:`_clear_entry_bits`).
    """

    protects_speculative_data = True

    def __init__(self, model: AttackModel, backward: bool = True,
                 shadow: ShadowMode = ShadowMode.L1, ideal: bool = False):
        super().__init__()
        self.model = model
        self.backward = backward or ideal
        self.shadow_mode = shadow
        self.ideal = ideal
        self.vp_predicate = vp_obstacle(model)
        self.name = self._config_name()
        self.untaint = UntaintStats()
        self.taint: list[bool] = []
        self.shadow: Optional[ShadowTaint] = None
        self.width = 3
        # FIFO of (preg, cause, enqueue_cycle) untaint requests awaiting
        # broadcast; the enqueue cycle feeds the queue-wait histogram.
        self._pending: list[tuple[int, UntaintKind, int]] = []
        self._pending_set: set[int] = set()
        # Cycle each physical register last became tainted, for the
        # taint-to-untaint latency histograms (repro.obs).
        self._taint_since: dict[int, int] = {}

    def _config_name(self) -> str:
        if self.ideal:
            prop = "Ideal"
        elif self.backward:
            prop = "Bwd"
        else:
            prop = "Fwd"
        shadow = {ShadowMode.NONE: "NoShadowL1", ShadowMode.L1: "ShadowL1",
                  ShadowMode.FULL_MEMORY: "ShadowMem"}[self.shadow_mode]
        return f"SPT{{{prop},{shadow}}}"

    def attach(self, core) -> None:
        super().attach(core)
        count = core.params.num_phys_regs
        # All architectural registers start tainted (Section 6.3) except the
        # hardwired zero register, whose value is public by definition.
        self.taint = [True] * count
        self.taint[0] = False
        self._taint_since = {preg: 0 for preg in range(1, count)}
        self.shadow = ShadowTaint(self.shadow_mode,
                                  core.params.hierarchy.l1_params.line_bytes)
        self.width = core.params.untaint_broadcast_width

    def entry_bits(self, di: DynInst) -> tuple:
        """``(t_src1, t_src2, t_dst, declassified)`` of an in-flight entry:
        what the sanitizer checks the engine's rules against."""
        raise NotImplementedError

    # ------------------------------------------------------ untaint requests
    def _enqueue(self, preg: int, cause: UntaintKind) -> None:
        """Queue ``preg`` for broadcast (an entry bit was just untainted)."""
        core = self.core
        # Taint state moves: the core must not fast-forward this cycle.
        core._activity += 1
        if preg >= 0 and self.taint[preg] and preg not in self._pending_set:
            self._pending.append((preg, cause, core.cycle))
            self._pending_set.add(preg)

    def on_squash(self, squashed: list) -> None:
        # Squashed destination registers are about to be recycled by rename;
        # their pending broadcasts must die with them, or a later broadcast
        # would untaint an unrelated new value.
        if not self._pending:
            return
        dead = {di.prd for di in squashed if di.prd >= 0}
        if not dead:
            return
        live = [entry for entry in self._pending if entry[0] not in dead]
        self._pending = live
        self._pending_set = {entry[0] for entry in live}

    # --------------------------------------------------------- memory hooks
    def _shadow_mirror(self, address: int, size: int, tainted: bool) -> None:
        """Write taint into the shadow, honoring L1 residency in L1 mode.

        The fill and the shadow update are decoupled in the pipeline: a
        store's retire-time access can stall on exhausted MSHRs (no fill
        happens), and a load's line can be evicted by a younger access
        between its fill and its data arrival.  In either case there is no
        resident line to mirror — the shadow holds no tags of its own —
        and writing one would break the shadow-residency invariant.  The
        bytes simply keep their conservative default (absent = tainted).
        """
        if self.shadow_mode != ShadowMode.L1:
            self.shadow.set_range(address, size, tainted=tainted)
            return
        line_bytes = self.shadow.line_bytes
        hierarchy = self.core.hierarchy
        while size > 0:
            line = address - address % line_bytes
            span = min(size, line_bytes - (address - line))
            if hierarchy.l1_resident(line):
                self.shadow.set_range(address, span, tainted=tainted)
            address += span
            size -= span

    def _load_data(self, di: DynInst, dst_tainted: bool) -> None:
        """Load data arrived for a non-forwarded load (rules 6.8)."""
        if not dst_tainted:
            # Lemma 1: the load reached the VP while waiting for data; its
            # access is public, so the read bytes become public (rule 6.8-2).
            self._shadow_mirror(di.address, di.inst.info.mem_size,
                                tainted=False)
            self.shadow.loads_cleared += 1
            return
        if not self.shadow.range_tainted(di.address, di.inst.info.mem_size):
            cause = (UntaintKind.SHADOW_MEM
                     if self.shadow_mode == ShadowMode.FULL_MEMORY
                     else UntaintKind.SHADOW_L1)
            self._request(di, "dst", di.prd, cause)

    def _store_data(self, di: DynInst, data_tainted: bool) -> None:
        # Rule 6.8-1: the store data's taint overwrites the written bytes.
        self._shadow_mirror(di.address, di.inst.info.mem_size,
                            tainted=data_tainted)
        if not data_tainted:
            self.shadow.stores_cleared += 1

    def on_l1_evict(self, line: int) -> None:
        self.shadow.invalidate_line(line)

    # ------------------------------------------------------------------ tick
    def _tick_ideal(self) -> None:
        """Single-cycle fixpoint untainting (SPT {Ideal, ShadowMem})."""
        untainted_this_cycle = 0
        while True:
            self._stl_rules()
            self._local_rules()
            progressed = self._broadcast(limit=None)
            untainted_this_cycle += progressed
            if not progressed:
                break
        self.untaint.record_cycle_width(untainted_this_cycle)

    # -------------------------------------------------------------- broadcast
    def _broadcast(self, limit: Optional[int]) -> int:
        """Phase 2 (7.3): publish up to ``limit`` untainted register IDs."""
        if not self._pending:
            if limit is not None:
                self.untaint.record_cycle_width(0)
            return 0
        # A draining queue is work even when nothing else in the machine
        # moves: the core must not fast-forward this cycle.
        self.core._activity += 1
        if limit is None:
            selected = self._pending
            self._pending = []
        else:
            selected = self._pending[:limit]
            self._pending = self._pending[limit:]
            if self._pending:
                self.untaint.broadcast_stall_cycles += 1
        self._pending_set = {entry[0] for entry in self._pending}
        transitions = 0
        now = self.core.cycle
        for preg, cause, enqueued in selected:
            self.untaint.record_queue_wait(now - enqueued)
            if self.taint[preg]:
                self.taint[preg] = False
                self.untaint.count(cause)
                transitions += 1
                since = self._taint_since.pop(preg, None)
                if since is not None:
                    self.untaint.record_latency(cause, now - since)
            self._clear_entry_bits(preg)
        self.untaint.broadcasts += len(selected)
        if limit is not None:
            self.untaint.record_cycle_width(transitions)
        return transitions

    # ------------------------------------------------------------ reporting
    def untaint_pending(self, preg: int) -> bool:
        # The stall accountant asks: is this register's untaint already
        # decided but stuck behind the broadcast width?
        return preg in self._pending_set

    def metrics_tree(self):
        """Fold the untaint machinery's state into the metrics hierarchy.

        Idempotent (``set``/``set_dist`` only): the accumulating state
        lives in :class:`UntaintStats` and the shadow structure.
        """
        m = self.metrics
        untaint = m.child("untaint")
        for kind, count in self.untaint.by_kind.items():
            untaint.set(kind.value, count)
        untaint.set("total", self.untaint.total)
        if self.untaint.untaints_per_cycle:
            untaint.set_dist("untaints_per_cycle",
                             self.untaint.untaints_per_cycle)
        # Taint-lifecycle histograms (log2 buckets, see events.log2_bucket).
        for kind, hist in self.untaint.latency_by_kind.items():
            untaint.set_dist(f"latency-{kind.value}", hist)
        broadcast = m.child("broadcast")
        broadcast.set("broadcasts", self.untaint.broadcasts)
        broadcast.set("stall_cycles", self.untaint.broadcast_stall_cycles)
        broadcast.set("queue_depth", len(self._pending))
        if self.untaint.queue_wait:
            broadcast.set_dist("queue_wait", self.untaint.queue_wait)
        if self.shadow is not None:
            shadow = m.child("shadow")
            shadow.set("stores_cleared", self.shadow.stores_cleared)
            shadow.set("loads_cleared", self.shadow.loads_cleared)
            # Occupancy at snapshot time: how much memory state the shadow
            # currently tracks, and how much of it is *untainted* resident
            # data — the adversarial fuzzer's proxy for how deeply a victim
            # exercised the shadow-L1 declassification path.
            shadow.set("tracked_lines", len(self.shadow.lines()))
            shadow.set("resident_untainted_bytes",
                       self.shadow.resident_untainted_bytes())
        return m


class ReferenceSPTEngine(SPTBase):
    """The full SPT protection engine, one window entry at a time.

    Its per-entry bits live on the ``DynInst`` (``t_src1``, ``t_src2``,
    ``t_dst``, ``declassified``, ``stl_public``), reset at rename.
    """

    def entry_bits(self, di: DynInst) -> tuple:
        return di.t_src1, di.t_src2, di.t_dst, di.declassified

    # ------------------------------------------------------------- tainting
    def on_rename(self, di: DynInst) -> None:
        di.declassified = False
        di.stl_public = False
        di.t_src1 = di.prs1 >= 0 and self.taint[di.prs1]
        di.t_src2 = di.prs2 >= 0 and self.taint[di.prs2]
        tainted = initial_output_taint(di.inst, di.t_src1, di.t_src2)
        # t_dst is kept even for discarded destinations (rd = x0): the
        # backward rules must not treat a never-observable result as public.
        di.t_dst = tainted
        if di.prd >= 0:
            self.taint[di.prd] = tainted
            if tainted:
                self._taint_since[di.prd] = self.core.cycle
            else:
                self._taint_since.pop(di.prd, None)

    # --------------------------------------------------------------- gating
    def may_compute_address(self, di: DynInst) -> bool:
        return not di.t_src1

    def may_resolve(self, di: DynInst) -> bool:
        if di.t_src1:
            return False
        return not (di.inst.info.reads_rs2 and di.t_src2)

    def skip_cache_for_forwarding(self, load: DynInst, store: DynInst) -> bool:
        # Only when the forwarding decision is already public (STLPublic).
        if not load.stl_public and self._stl_public(load, store):
            load.stl_public = True
        return load.stl_public

    # ------------------------------------------------------ untaint requests
    def _request(self, di: Optional[DynInst], slot: str, preg: int,
                 cause: UntaintKind) -> None:
        """Locally untaint an entry bit and queue the register for broadcast."""
        if di is not None:
            if slot == "src1":
                if not di.t_src1:
                    return
                di.t_src1 = False
            elif slot == "src2":
                if not di.t_src2:
                    return
                di.t_src2 = False
            else:
                if not di.t_dst:
                    return
                di.t_dst = False
        self._enqueue(preg, cause)

    # ------------------------------------------------------------ vp events
    def _declassify(self, di: DynInst) -> None:
        """Non-speculative transmitter/branch leaks its operands (6.6)."""
        if di.declassified:
            return
        di.declassified = True
        cause = (UntaintKind.VP_TRANSMITTER if di.is_transmitter
                 else UntaintKind.VP_BRANCH)
        for slot in leaked_operands(di.inst):
            preg = di.prs1 if slot == "src1" else di.prs2
            self._request(di, slot, preg, cause)

    def on_retire(self, di: DynInst) -> None:
        # Retirement implies non-speculation even if the VP frontier scan has
        # not reached the instruction yet this cycle.
        self._declassify(di)

    # --------------------------------------------------------- memory hooks
    def on_load_data(self, di: DynInst) -> None:
        if di.forwarded_from is not None:
            # Taint crosses a forwarding pair only via the STLPublic rules.
            return
        self._load_data(di, di.t_dst)

    def on_store_retire(self, di: DynInst) -> None:
        self._store_data(di, di.t_src2)

    # ------------------------------------------------------------------ tick
    def step(self, newly_vp: list) -> None:
        for di in newly_vp:
            if di.is_transmitter or di.kind in (Kind.BRANCH, Kind.JUMP_REG):
                self._declassify(di)
        if self.ideal:
            self._tick_ideal()
        else:
            self._stl_rules()
            self._local_rules()
            self._broadcast(limit=self.width)

    # ---------------------------------------------------------------- rules
    def _local_rules(self) -> None:
        """Phase 1 (7.3): apply forward/backward rules locally per entry."""
        backward = self.backward
        for di in self.core.in_flight():
            if di.squashed or di.kind not in PURE_KINDS:
                continue
            if di.t_dst and forward_untaints_output(di.inst, di.t_src1,
                                                    di.t_src2):
                self._request(di, "dst", di.prd, UntaintKind.FORWARD)
            if not backward:
                continue
            slot = backward_untaints(di.inst, di.t_dst, di.t_src1, di.t_src2)
            if slot == "src1":
                self._request(di, "src1", di.prs1, UntaintKind.BACKWARD)
            elif slot == "src2":
                self._request(di, "src2", di.prs2, UntaintKind.BACKWARD)

    def _stl_rules(self) -> None:
        """Store-to-load forwarding untaint, gated by STLPublic (6.7)."""
        for load in self.core.lsq:
            if load.is_load and not load.squashed and load.fwding_st >= 0:
                self._stl_rule(load)

    def _stl_rule(self, load: DynInst) -> None:
        store = load.forwarded_from
        if not load.stl_public:
            if not self._stl_public(load, store):
                return
            load.stl_public = True
        if not store.t_src2 and load.t_dst:
            self._request(load, "dst", load.prd, UntaintKind.STL_FORWARD)
        elif self.backward and not load.t_dst and store.t_src2:
            target = store if not store.retired else None
            # _request just bumped core._activity: this request always
            # passes its early-out (store.t_src2 is set, or target is None).
            self._request(target, "src2", store.prs2,
                          UntaintKind.STL_BACKWARD)
            store.t_src2 = False

    def _stl_public(self, load: DynInst, store: DynInst) -> bool:
        """STLPublic(S, L): forwarding decision inferable by the attacker."""
        if load.t_src1:
            return False
        pending = 0
        for st in self.core.lsq:
            if st.seq >= load.seq:
                break
            if (st.is_store and not st.squashed and st.seq >= store.seq
                    and st.t_src1):
                pending += 1
        return pending == 0 and not store.t_src1

    # -------------------------------------------------------------- broadcast
    def _clear_entry_bits(self, preg: int) -> None:
        for di in self.core.in_flight():
            if di.prs1 == preg:
                di.t_src1 = False
            if di.prs2 == preg:
                di.t_src2 = False
            if di.prd == preg:
                di.t_dst = False


class SPTEngine(SPTBase):
    """SPT with packed-bitmask window state (bit-identical to the reference).

    The per-cycle work is restructured around the window *slots* the core
    assigns at dispatch (one per ROB entry, allocated circularly in program
    order, ``DynInst.fp_slot``):

    * every per-entry bit (``t_src1``/``t_src2``/``t_dst``, declassified,
      STLPublic) lives only in a packed Python-int bitmask indexed by slot,
      so the Section 6.6 forward/backward local rules evaluate over the
      whole window in a handful of bitwise operations, and the engine
      writes no ``DynInst`` field;
    * the static rule class of every instruction (pure, invertible-monadic,
      invertible-ALU) comes from the decode-time tables of
      :mod:`repro.pipeline.tables`, and the rename-time taint
      initialisation is folded into the same table lookup;
    * the dependence matrix is kept as packed bitmasks *per physical
      register* (bitset of window slots referencing it), so an untaint
      broadcast clears matching operand bits by walking one
      lazily-validated row instead of scanning the window;
    * the STL rules only visit a watch list of forwarded loads instead of
      the whole LSQ.  A store that retires while a watched load forwards
      from it leaves its slot, but the STL rules still read (and the
      backward rule still clears) its data bit, which then lives in
      ``_retired_data`` until no watched load names the store.
    """

    def __init__(self, model: AttackModel, backward: bool = True,
                 shadow: ShadowMode = ShadowMode.L1, ideal: bool = False):
        super().__init__(model, backward=backward, shadow=shadow, ideal=ideal)
        self._cap = 0
        self._head = 0
        self._slot_di: list[Optional[DynInst]] = []
        # Packed per-slot bitmasks (Python ints as bitsets over slots).
        self._t_src1_m = 0
        self._t_src2_m = 0
        self._t_dst_m = 0
        self._declassified_m = 0
        self._stl_public_m = 0
        self._pure_m = 0
        self._inv_mono_m = 0
        self._inv_alu_m = 0
        # Dependence matrix rows: preg -> bitset of slots whose entry
        # references it (as src1, src2 or dst), stored as a flat list
        # indexed by physical register.  Rows are built at rename and
        # validated lazily by the broadcast walk (slot frees do not prune
        # them), so a broadcast touches at most the slots that referenced
        # the register since its last broadcast — and clears exactly the
        # entries the reference's whole-window scan would have matched.
        self._preg_slots: list[int] = []
        self._pc_flags: list[int] = []
        # Forwarded loads currently subject to the STL rules (Section 6.7).
        self._stl_watch: list[DynInst] = []
        self._stl_seen: set[int] = set()
        # Retired store seq -> its data bit (t_src2), while a watched load
        # forwards from it.
        self._retired_data: dict[int, bool] = {}

    def attach(self, core) -> None:
        super().attach(core)
        self._cap = core.params.rob_entries
        self._head = 0
        self._slot_di = [None] * self._cap
        self._preg_slots = [0] * core.params.num_phys_regs
        self._pc_flags = lower_program(core.program).flags

    def entry_bits(self, di: DynInst) -> tuple:
        bit = 1 << di.fp_slot
        return (bool(self._t_src1_m & bit), bool(self._t_src2_m & bit),
                bool(self._t_dst_m & bit), bool(self._declassified_m & bit))

    # ------------------------------------------------------- slot lifecycle
    def on_rename(self, di: DynInst) -> None:
        # The reference rename (taint_algebra.initial_output_taint, Section
        # 6.3) re-expressed over the decode-table flags, so one pass fills
        # the packed window masks.
        taint = self.taint
        prs1 = di.prs1
        prs2 = di.prs2
        prd = di.prd
        t1 = prs1 >= 0 and taint[prs1]
        t2 = prs2 >= 0 and taint[prs2]
        flags = self._pc_flags[di.pc]
        if flags & F_LOAD:
            tainted = True             # memory taint unknown at rename
        elif flags & F_PC_INFERABLE:
            tainted = False            # Section 6.5
        else:
            tainted = t1 or t2
        if prd >= 0:
            taint[prd] = tainted
            if tainted:
                self._taint_since[prd] = self.core.cycle
            else:
                self._taint_since.pop(prd, None)
        # The slot's bits were all cleared when its last entry left.
        slot = di.fp_slot
        self._slot_di[slot] = di
        bit = 1 << slot
        if flags & F_PURE:
            self._pure_m |= bit
        if flags & F_INV_MONO:
            self._inv_mono_m |= bit
        elif flags & F_INV_ALU:
            self._inv_alu_m |= bit
        if t1:
            self._t_src1_m |= bit
        if t2:
            self._t_src2_m |= bit
        # t_dst is kept even for discarded destinations (rd = x0): the
        # backward rules must not treat a never-observable result as public.
        if tainted:
            self._t_dst_m |= bit
        rows = self._preg_slots
        if prs1 >= 0:
            rows[prs1] |= bit
        if prs2 >= 0 and prs2 != prs1:
            rows[prs2] |= bit
        if prd >= 0:
            # A fresh destination register cannot alias a source row: prd
            # comes off the free list, sources off the RAT.
            rows[prd] |= bit

    def on_retire(self, di: DynInst) -> None:
        slot = di.fp_slot
        bit = 1 << slot
        # Declassification runs first, while the slot is still live.  Only
        # transmitters and branches leak operands; retirement declassifies
        # nothing else (the slot's bits are about to be cleared anyway).
        if self._pc_flags[di.pc] & _F_DECLASS:
            self._declassify(di)
            if di.is_store and self._stl_watch:
                seq = di.seq
                if any(load.fwding_st == seq for load in self._stl_watch):
                    self._retired_data[seq] = bool(self._t_src2_m & bit)
        # O(1): clear the slot's bit in every packed mask.  The dependence
        # rows are *not* pruned here — stale row bits are filtered lazily
        # by the broadcast walk (``_clear_entry_bits``).
        nbit = ~bit
        self._t_src1_m &= nbit
        self._t_src2_m &= nbit
        self._t_dst_m &= nbit
        self._declassified_m &= nbit
        self._stl_public_m &= nbit
        self._pure_m &= nbit
        self._inv_mono_m &= nbit
        self._inv_alu_m &= nbit
        self._slot_di[slot] = None
        self._head = slot + 1 if slot + 1 < self._cap else 0

    def on_squash(self, squashed: list) -> None:
        super().on_squash(squashed)
        if not squashed:
            return
        # All victims' mask bits fall in one batched clear.
        slot_di = self._slot_di
        dead = 0
        for di in squashed:
            dead |= 1 << di.fp_slot
            slot_di[di.fp_slot] = None
        live = ~dead
        self._t_src1_m &= live
        self._t_src2_m &= live
        self._t_dst_m &= live
        self._declassified_m &= live
        self._stl_public_m &= live
        self._pure_m &= live
        self._inv_mono_m &= live
        self._inv_alu_m &= live

    # --------------------------------------------------------------- gating
    def may_compute_address(self, di: DynInst) -> bool:
        return not (self._t_src1_m >> di.fp_slot) & 1

    def may_resolve(self, di: DynInst) -> bool:
        slot = di.fp_slot
        if (self._t_src1_m >> slot) & 1:
            return False
        return not (di.info.reads_rs2 and (self._t_src2_m >> slot) & 1)

    def skip_cache_for_forwarding(self, load: DynInst, store: DynInst) -> bool:
        # First sighting of a forwarded load: put it on the STL watch list.
        if load.seq not in self._stl_seen:
            self._stl_seen.add(load.seq)
            self._stl_watch.append(load)
        # Only when the forwarding decision is already public (STLPublic).
        bit = 1 << load.fp_slot
        if not self._stl_public_m & bit:
            if not self._stl_public(load, store):
                return False
            self._stl_public_m |= bit
        return True

    # ------------------------------------------------------ untaint requests
    def _request(self, di: DynInst, slot: str, preg: int,
                 cause: UntaintKind) -> None:
        """Untaint entry bit ``slot`` of the live entry ``di`` and queue
        ``preg`` for broadcast; a no-op if the bit is already clear."""
        bit = 1 << di.fp_slot
        if slot == "src1":
            if not self._t_src1_m & bit:
                return
            self._t_src1_m ^= bit
        elif slot == "src2":
            if not self._t_src2_m & bit:
                return
            self._t_src2_m ^= bit
        else:
            if not self._t_dst_m & bit:
                return
            self._t_dst_m ^= bit
        self._enqueue(preg, cause)

    def _declassify(self, di: DynInst) -> None:
        """A non-speculative transmitter or branch leaks its operands
        (6.6): every kind ``rs1``, a conditional branch ``rs2`` too."""
        bit = 1 << di.fp_slot
        if self._declassified_m & bit:
            return
        self._declassified_m |= bit
        if di.is_transmitter:
            self._request(di, "src1", di.prs1, UntaintKind.VP_TRANSMITTER)
            return
        self._request(di, "src1", di.prs1, UntaintKind.VP_BRANCH)
        if di.kind == Kind.BRANCH:
            self._request(di, "src2", di.prs2, UntaintKind.VP_BRANCH)

    # --------------------------------------------------------- memory hooks
    def on_load_data(self, di: DynInst) -> None:
        if di.forwarded_from is not None:
            # Taint crosses a forwarding pair only via the STLPublic rules.
            return
        self._load_data(di, bool((self._t_dst_m >> di.fp_slot) & 1))

    def on_store_retire(self, di: DynInst) -> None:
        # Called before on_retire: the slot is still the store's.
        self._store_data(di, bool((self._t_src2_m >> di.fp_slot) & 1))

    # ------------------------------------------------------------------ tick
    def step(self, newly_vp: list) -> None:
        # The reference step with the empty cases short-circuited: no watch
        # list means no STL rules, and an empty broadcast queue means the
        # reference would only have recorded a zero cycle width — a no-op
        # on the histogram (UntaintStats.record_cycle_width ignores zeros).
        if newly_vp:
            flags = self._pc_flags
            for di in newly_vp:
                if flags[di.pc] & _F_DECLASS:
                    self._declassify(di)
        if self.ideal:
            self._tick_ideal()
            return
        if self._stl_watch:
            self._stl_rules()
        self._local_rules()
        if self._pending:
            self._broadcast(self.width)

    # ---------------------------------------------------------------- rules
    def _local_rules(self) -> None:
        # Whole-window evaluation of the Section 6.6 rules in O(1) bitops.
        t_src1 = self._t_src1_m
        t_src2 = self._t_src2_m
        if not (self._t_dst_m | t_src1 | t_src2):
            return    # no tainted bit anywhere: neither rule can fire
        # Forward: pure entry, tainted output, both sources untainted.
        fwd = self._t_dst_m & self._pure_m & ~t_src1 & ~t_src2
        # Backward: output untainted (counting a forward fire this pass,
        # matching the reference's within-entry dst-then-src ordering),
        # and the single remaining tainted source is inferable.
        if self.backward:
            t_dst_eff = self._t_dst_m & ~fwd
            bwd = ~t_dst_eff & ((self._inv_mono_m & t_src1)
                                | (self._inv_alu_m & (t_src1 ^ t_src2)))
        else:
            bwd = 0
        fire = fwd | bwd
        if not fire:
            return
        # Process firing slots in window (program) order: the broadcast
        # queue is FIFO, so enqueue order is architecturally visible.
        slots = []
        mask = fire
        while mask:
            low = mask & -mask
            slots.append(low.bit_length() - 1)
            mask ^= low
        head, cap = self._head, self._cap
        if len(slots) > 1:
            slots.sort(key=lambda s: s - head if s >= head else s + cap - head)
        slot_di = self._slot_di
        for s in slots:
            di = slot_di[s]
            bit = 1 << s
            if fwd & bit:
                self._request(di, "dst", di.prd, UntaintKind.FORWARD)
            elif self._inv_mono_m & bit or self._t_src1_m & bit:
                self._request(di, "src1", di.prs1, UntaintKind.BACKWARD)
            else:
                self._request(di, "src2", di.prs2, UntaintKind.BACKWARD)

    def _stl_rules(self) -> None:
        # The reference's per-load rule, but only over forwarded loads.
        watch = self._stl_watch
        if not watch:
            return
        if any(ld.retired or ld.squashed for ld in watch):
            watch = [ld for ld in watch if not ld.retired and not ld.squashed]
            self._stl_watch = watch
            self._stl_seen = {ld.seq for ld in watch}
            if self._retired_data:
                named = {ld.fwding_st for ld in watch}
                self._retired_data = {seq: bit for seq, bit
                                      in self._retired_data.items()
                                      if seq in named}
            if not watch:
                return
        if len(watch) > 1:
            watch.sort(key=lambda d: d.seq)    # LSQ (program) order
        for load in watch:
            self._stl_rule(load)

    def _stl_rule(self, load: DynInst) -> None:
        store = load.forwarded_from
        bit = 1 << load.fp_slot
        if not self._stl_public_m & bit:
            if not self._stl_public(load, store):
                return
            self._stl_public_m |= bit
        if store.retired:
            data_tainted = self._retired_data[store.seq]
        else:
            data_tainted = bool((self._t_src2_m >> store.fp_slot) & 1)
        load_tainted = self._t_dst_m & bit
        if not data_tainted and load_tainted:
            self._request(load, "dst", load.prd, UntaintKind.STL_FORWARD)
        elif self.backward and not load_tainted and data_tainted:
            if store.retired:
                # No entry bit left to clear but the retired data bit; the
                # request still bumps the core's activity counter.
                self._retired_data[store.seq] = False
                self._enqueue(store.prs2, UntaintKind.STL_BACKWARD)
            else:
                self._request(store, "src2", store.prs2,
                              UntaintKind.STL_BACKWARD)

    def _stl_public(self, load: DynInst, store: DynInst) -> bool:
        """STLPublic(S, L) over the packed address bits.  A retired store
        has no tainted address: retirement declassified it."""
        t_src1 = self._t_src1_m
        if (t_src1 >> load.fp_slot) & 1:
            return False
        for st in self.core.lsq:
            if st.seq >= load.seq:
                break
            if (st.is_store and not st.squashed and st.seq >= store.seq
                    and (t_src1 >> st.fp_slot) & 1):
                return False
        return store.retired or not (t_src1 >> store.fp_slot) & 1

    # -------------------------------------------------------------- broadcast
    def _clear_entry_bits(self, preg: int) -> None:
        # The reference scans the whole window per broadcast register; the
        # dependence row reduces that to a walk of the slots recorded as
        # referencing the register.  Rows are not pruned when slots free,
        # so the walk validates each slot — an emptied or reused slot whose
        # entry no longer references ``preg`` is exactly what the
        # reference's per-entry field test would skip, and its stale bit is
        # dropped from the row here.  A reused slot whose *new* entry
        # references ``preg`` again is a true match (rename re-ORed its
        # bit).  The per-slot clears are independent, so the ascending-slot
        # walk is equivalent to the reference's program-order ROB scan.
        rows = self._preg_slots
        mask = rows[preg]
        if not mask:
            return
        slot_di = self._slot_di
        row = mask
        while mask:
            low = mask & -mask
            mask ^= low
            di = slot_di[low.bit_length() - 1]
            if di is None:
                row ^= low
                continue
            nbit = ~low
            hit = False
            if di.prs1 == preg:
                hit = True
                self._t_src1_m &= nbit
            if di.prs2 == preg:
                hit = True
                self._t_src2_m &= nbit
            if di.prd == preg:
                hit = True
                self._t_dst_m &= nbit
            if not hit:
                row ^= low
        rows[preg] = row
