"""Cycle-approximate out-of-order core with real transient execution.

The model implements the baseline microarchitecture of Section 7.1 of the
paper: in-order fetch/rename/dispatch into a ROB, a unified reservation
station issuing out of order, a load/store queue with store-to-load
forwarding, retire-time stores (TSO), and branch prediction with genuine
wrong-path execution and squash — the substrate every protection scheme
(UnsafeBaseline, SecureBaseline, STT, SPT) plugs into via
:class:`~repro.pipeline.engine_api.ProtectionEngine`.

Timing is approximate (no explicit functional-unit contention beyond issue
width, perfect I-cache), but every mechanism SPT interacts with is modelled
faithfully: the visibility point, delayed branch resolution, delayed
transmitter execution, forwarding visibility, and cache state changes by
transient instructions.

The pipeline phases are batched over the decode tables of
:mod:`repro.pipeline.tables`.  Fetch decodes whole straight-line runs in
one loop.  Dispatch reads precomputed ``dclass``/``hasdest`` columns and
registers each entry with a wakeup network; select is wakeup-driven
(waiters keyed by physical register, ready candidates merged with the
engine-gated list in seq order), so the reservation station is only an
occupancy count.  Structures hold ``(seq, di)`` pairs and revalidate
``di.seq``, which makes stale references from squashes and recycling
self-cleaning.

:meth:`OoOCore.run` adds two layers of mechanical speed work by default:

* *Quiescent-cycle fast-forward.*  ``_activity`` is bumped at every true
  state mutation; a cycle that leaves it unchanged proved that nothing in
  the machine moved, so every following cycle is an identical no-op until
  the next scheduled event (a completion bucket, the fetch-redirect
  resume, the fetch buffer's frontend delay, or an MSHR expiry).  Time
  jumps to the cycle before that event, and the skipped cycles are
  accounted in batch: stall buckets repeat the detection cycle's cause
  (split at the squash-recovery boundary), and the two hold counters
  (``protection.transmitters_delayed_cycles`` and
  ``protection.resolutions_delayed_cycles``) replay the detection cycle's
  delta.  The core consults each engine gate at one site and counts every
  refusal there, so these are the only per-cycle counters in the machine
  and engines keep none.
* *DynInst recycling.*  Fetch re-stamps pooled :class:`DynInst` carcasses
  (:meth:`DynInst.reinit_recycled`) instead of allocating; squash victims
  are quarantined until their squash cycle has passed and any scheduled
  completion-bucket entry has drained.

A core runs in *stepped mode* instead when an observer needs every cycle
or holds instructions across cycles: a ``check_level="full"`` sanitizer, a
tracer's squash sink, or a core stepped by hand with :meth:`OoOCore.step`.
Stepped mode turns both layers off and records every lifecycle timestamp
(``fetch_cycle`` through ``retire_cycle``).  The mode is decided once per
core.  The ``commit`` sanitizer level only hooks retire, squash and
finish, so it keeps fast-forward.  ``repro check`` and the differential
suite in ``tests/fastpath`` pin the default run against the *reference
run* — the same engine in stepped mode under the full sanitizer, which
runs SPT beside its reference engine — and against a committed golden
record of earlier reference runs.

There is one cycle body, ``OoOCore._cycle``: :meth:`OoOCore.run` loops it
(and fast-forwards between its calls), and :meth:`OoOCore.step` calls it
once.  A hand-stepped core therefore raises at ``max_cycles`` and on
deadlock, and its sanitizer checks the final state when HALT retires,
exactly as in a run.

The operations that compute or consume register and memory values
(``_alu``, ``_address``, ``_truncate``, ``_branch_outcome``,
``_jump_outcome``, ``_apply_resolution``) are class attributes:
:class:`~repro.pipeline.relational.PairedCore` overrides them to carry two
twin programs through one run.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.isa.instructions import Program
from repro.isa.opcodes import Kind, NUM_ARCH_REGS, WORD_MASK
from repro.isa.semantics import alu_result, branch_taken, effective_address
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.main_memory import MainMemory
from repro.obs.metrics import Metrics
from repro.obs.stall import NUM_CAUSES, STALL_CAUSES, StallCause, attribute_cycle
from repro.pipeline.branch_predictor import BranchPredictor
from repro.pipeline.dyninst import DynInst
from repro.pipeline.engine_api import ProtectionEngine
from repro.pipeline.params import MachineParams
from repro.pipeline.rename import RenameUnit
from repro.pipeline.tables import (DC_LOAD, DC_NONE, DC_STORE, KC_HALT,
                                   KC_SIMPLE, lower_program)
from repro.security.observer import Observer

_RETIRING = int(StallCause.RETIRING)
_SQUASH_RECOVERY = int(StallCause.SQUASH_RECOVERY)
_FETCH_STARVED = int(StallCause.FETCH_STARVED)
_ROB_FULL = int(StallCause.ROB_FULL)
_RS_FULL = int(StallCause.RS_FULL)
_LSQ_FULL = int(StallCause.LSQ_FULL)


def _seq_of(di: DynInst) -> int:
    return di.seq


class SimulationError(Exception):
    """Raised when the simulation wedges (deadlock / cycle cap)."""


class SimResult:
    """Outcome of one simulation run.

    ``metrics`` is the hierarchical :class:`~repro.obs.metrics.Metrics`
    tree (stall accounting, taint lifecycle, engine counters) and the only
    carrier of the run's counters; read them by path, e.g.
    ``metrics.group("frontend").get("fetched")``.
    """

    def __init__(self, core: "OoOCore", halted: bool,
                 engine: Optional[ProtectionEngine] = None):
        self.metrics = core.build_metrics(engine)
        self.cycles = core.cycle
        self.retired = core.retired_count
        self.halted = halted
        self.arch_regs = [core.rename.arch_value(i) for i in range(NUM_ARCH_REGS)]
        self.memory = core.memory
        self.observer = core.observer
        self.retired_pcs = core.retired_pcs

    @property
    def stats(self) -> dict:
        """The core counters under their pre-tree names (``fetched``, ...),
        computed from :attr:`metrics`; kept only for ``perfbench``."""
        return {key: value
                for group in ("frontend", "speculation", "memory", "protection")
                for key, value in self.metrics.group(group).scalars.items()}

    def reg(self, index: int) -> int:
        return self.arch_regs[index]

    def word(self, address: int) -> int:
        return self.memory.load(address, 8)

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0


class OoOCore:
    """The out-of-order core simulator."""

    def __init__(self, program: Program,
                 engine: Optional[ProtectionEngine] = None,
                 params: Optional[MachineParams] = None):
        self.program = program
        self.params = params or MachineParams()
        self.params.validate()
        self.engine = engine or ProtectionEngine()
        self.observer = Observer()
        self.memory = MainMemory(program.initial_memory,
                                 uninit_seed=self.params.uninit_secret_seed)
        self.hierarchy = MemoryHierarchy(self.params.hierarchy)
        self.predictor = BranchPredictor(
            self.params.bp_history_bits, self.params.btb_entries,
            self.params.ras_entries)
        self.rename = RenameUnit(self.params.num_phys_regs)

        self.cycle = 0
        self.seq = 0
        self.retired_count = 0
        self.halted = False
        # Set to a list to record every retired pc, in order.
        self.retired_pcs: Optional[list] = None

        # In-flight structures.  ``rob`` is program-ordered; the head pointer
        # avoids O(n) pops and is compacted periodically.
        self.rob: list[DynInst] = []
        self.rob_head = 0
        # Window slots (``DynInst.fp_slot``): dispatch hands them out
        # circularly over ``rob_entries`` in program order, a squash
        # retracts the tail, and retirement frees the head's.
        self._slot_tail = 0
        self.lsq: list[DynInst] = []
        self.pending_control: list[DynInst] = []
        self._completion_buckets: dict[int, list[DynInst]] = {}
        self._pending_mds_checks: list[DynInst] = []

        # Frontend.
        self.fetch_pc = 0
        self.fetch_buffer: deque = deque()     # (ready_cycle, di) pairs
        self.fetch_halted = False          # HALT fetched / off-program
        self.fetch_wait_for: Optional[DynInst] = None   # JALR with no BTB target
        self.fetch_resume_cycle = 0
        # Speculative predictor-state checkpoints, one per predicted
        # control-flow instruction, appended in fetch (= seq) order:
        # (seq, state-before-this-prediction).  A squash restores the
        # checkpoint of the oldest squashed prediction — only control
        # instructions mutate RAS/history, so that state equals the state
        # at the squash anchor.  Entries are pruned at retire (a retired
        # instruction can never be squashed).
        self._bp_checkpoints: deque = deque()
        self._vp_scan = 0                  # absolute rob index of VP frontier
        # Set by the tracer (repro.pipeline.trace): a sink for squashed
        # instructions, and a hook ``run`` calls after every cycle.
        self.squash_sink: Optional[list] = None
        self.cycle_hook: Optional[Callable[[], None]] = None

        # Event counters as plain attributes (a dict increment per delayed
        # transmitter per cycle dominates the issue loop otherwise); the
        # metrics hierarchy is built from them at collection time.
        self.n_squashes = 0
        self.n_mispredicts = 0
        self.n_squashed_insts = 0
        self.n_fetched = 0
        self.n_loads_forwarded = 0
        self.n_loads_forwarded_cache = 0
        self.n_mem_order_violations = 0
        self._transmitters_delayed = 0
        self._resolutions_delayed = 0
        self._lq_used = 0
        self._sq_used = 0

        # Activity counter for fast-forward: bumped at every site (core or
        # engine) that mutates machine state beyond the per-cycle monotone
        # counters.  A cycle that leaves it unchanged proved itself a pure
        # no-op, so the batched path may jump time to the next scheduled
        # event.  Over-bumping is safe (it only costs skip opportunities);
        # a missed bump would be unsound.
        self._activity = 0

        # Stall-cause cycle accounting (repro.obs.stall): one bucket per
        # cycle, indexed by StallCause; the sum equals ``cycle`` always.
        self.stall_counts: list[int] = [0] * NUM_CAUSES
        self.dispatch_block = -1          # StallCause index or -1, per cycle
        self.last_squash_cycle = -(10 ** 9)
        # The deadlock detector's reference: the last cycle that retired.
        self.last_retire_cycle = 0
        self.engine.attach(self)

        # Lockstep invariant sanitizer (repro.check).  ``None`` when
        # checking is off: every hook site below guards on ``is not None``,
        # so an unchecked run pays one attribute test per event and nothing
        # else.  Imported lazily to keep the hot path import-free.
        self.checker = None
        if self.params.check_level != "off":
            from repro.check.sanitizer import Sanitizer
            self.checker = Sanitizer(self, self.params.check_level)

        # Stepped mode (see the module docstring): decided at the first
        # ``run()`` or ``step()`` call, None until then.
        self._stepped: Optional[bool] = None
        self._table = lower_program(program)
        # Recycling pools, keyed by pc: a carcass is only ever reused as
        # the same static instruction, which lets the re-stamp skip every
        # field whose value is pc-determined or dead across same-pc lives
        # (DynInst.reinit_recycled documents the proof per field).
        self._pool: dict[int, list[DynInst]] = {}
        self._quar: list = []              # heap of (release_cycle, seq, di)
        # Squash victims with no still-scheduled completion-bucket entry
        # (``ready_cycle <= cycle``): they only need to stay visible as
        # ``squashed = True`` until the squash cycle's remaining observers
        # (this cycle's engine tick, the STL watch prune) have run, so they
        # cool in a plain list tagged with the squash cycle and re-pool in
        # one batch on the first later cycle — no heap traffic.
        self._cool: list[DynInst] = []
        self._cool_cycle = -1
        # Wakeup network: preg -> [(seq, di), ...] waiting on that register;
        # a min-heap of operand-ready candidates; and the seq-sorted list of
        # ready candidates the engine gated (or the width cut off) last
        # cycle.  All entries are revalidated by seq before use.  There is
        # no RS list: ``_rs_count`` is the reservation station's occupancy.
        self._rs_wait: dict[int, list] = {}
        self._rs_ready: list = []
        self._rs_gated: list = []
        self._rs_count = 0
        # Loads whose data arrived this cycle (writeback bucket pop), to be
        # finalised without scanning the LSQ.
        self._fin_loads: list[DynInst] = []

    # ------------------------------------------------------------- metrics
    def build_metrics(self,
                      engine: Optional[ProtectionEngine] = None) -> Metrics:
        """Assemble the hierarchical metrics tree for this run, with
        ``engine``'s metrics (default: the core's engine) under ``engine``.

        Idempotent (derived values are ``set``, never accumulated): the
        tracer and :class:`SimResult` may both collect it.
        """
        m = Metrics("sim")
        sim = m.child("sim")
        sim.set("cycles", self.cycle)
        sim.set("retired", self.retired_count)
        sim.set("ipc", self.retired_count / self.cycle if self.cycle else 0.0)
        frontend = m.child("frontend")
        frontend.set("fetched", self.n_fetched)
        spec = m.child("speculation")
        spec.set("squashes", self.n_squashes)
        spec.set("mispredicts", self.n_mispredicts)
        spec.set("squashed_insts", self.n_squashed_insts)
        spec.set("mem_order_violations", self.n_mem_order_violations)
        mem = m.child("memory")
        mem.set("loads_forwarded", self.n_loads_forwarded)
        mem.set("loads_forwarded_with_cache_access",
                self.n_loads_forwarded_cache)
        for cache in (self.hierarchy.l1, self.hierarchy.l2, self.hierarchy.l3):
            level = mem.child(cache.params.name.lower())
            level.set("hits", cache.stats.hits)
            level.set("misses", cache.stats.misses)
        protection = m.child("protection")
        protection.set("transmitters_delayed_cycles",
                       self._transmitters_delayed)
        protection.set("resolutions_delayed_cycles",
                       self._resolutions_delayed)
        stalls = m.child("stalls")
        for cause in STALL_CAUSES:
            stalls.set(cause.key, self.stall_counts[cause])
        stalls.set("total", sum(self.stall_counts))
        m.groups["engine"] = (engine or self.engine).metrics_tree()
        if self.checker is not None:
            m.groups["check"] = self.checker.metrics_tree()
        return m

    # ----------------------------------------------------------------- utils
    def in_flight(self):
        """The live window, oldest first (a snapshot list: the engines
        iterate it several times per cycle and a slice beats a generator)."""
        return self.rob[self.rob_head:]

    def head_inst(self) -> Optional[DynInst]:
        if self.rob_head < len(self.rob):
            return self.rob[self.rob_head]
        return None

    # ------------------------------------------------------------------ run
    def run(self, max_instructions: int = 1_000_000) -> SimResult:
        """Simulate until HALT retires, the budget is hit, or deadlock.

        Fast-forwards quiescent cycles unless the core is in stepped mode
        (see the module docstring); the mode is decided once per core, at
        its first ``run`` or :meth:`step`.
        """
        if self._stepped is None:
            self._stepped = (self.squash_sink is not None
                             or (self.checker is not None
                                 and self.checker.full))
        stepped = self._stepped
        one_cycle = self._cycle
        while not self.halted and self.retired_count < max_instructions:
            activity = self._activity
            trans_before = self._transmitters_delayed
            res_before = self._resolutions_delayed
            one_cycle()
            if not stepped and not self.halted and self._activity == activity:
                self._quiet_jump(trans_before, res_before)
        return SimResult(self, self.halted)

    def step(self) -> None:
        """Advance the machine by one clock cycle: :meth:`run`'s cycle,
        without fast-forward, so it raises at the cycle cap and on
        deadlock and runs the final-state check once HALT retires.  A core
        stepped by hand before its first ``run`` is in stepped mode.
        """
        if self._stepped is None:
            self._stepped = True
        self._cycle()

    def _cycle(self) -> None:
        """One clock cycle, the only cycle body: the phases, the engine
        tick, the cycle's stall attribution, the end-of-cycle observers (the
        full-level sanitizer's window scans, then the tracer's harvest), the
        deadlock detector and the cycle cap, and the sanitizer's final-state
        check on the cycle HALT retires."""
        self.cycle += 1
        retired_before = self.retired_count
        self._writeback_batched()
        self._memory_stage()
        self._finish_loads_batched()
        self._resolve_control()
        # An incomplete head can never retire (HALT/NOP complete at
        # dispatch; a load's ``mem_complete`` implies ``complete``;
        # predicted control needs ``complete`` too), and retirement is in
        # order: only a complete head makes commit worth calling.
        head = self.rob_head
        rob = self.rob
        if head < len(rob) and rob[head].complete:
            self._commit()
        self._issue_batched()
        self._dispatch_batched()
        self._fetch_batched()
        self.engine.tick()
        cycle = self.cycle
        # Attribute the cycle (repro.obs.stall).  Retiring cycles — the
        # common case — are counted inline without the classifier.
        if self.retired_count != retired_before:
            self.stall_counts[_RETIRING] += 1
            self.last_retire_cycle = cycle
        else:
            self.stall_counts[attribute_cycle(self)] += 1
        checker = self.checker
        if checker is not None and checker.full:
            checker.on_cycle()
        if self.cycle_hook is not None:
            self.cycle_hook()
        if cycle - self.last_retire_cycle > 100_000:
            raise SimulationError(
                f"{self.engine.name}/{self.program.name}: no retirement "
                f"for 100k cycles at cycle {cycle} "
                f"(head={self.head_inst()!r})")
        if cycle >= self.params.max_cycles:
            raise SimulationError(f"{self.program.name}: exceeded max_cycles")
        if (self.halted and checker is not None
                and self.last_retire_cycle == cycle):
            checker.on_finish()

    # -------------------------------------------------------- fast-forward
    def _next_event_cycle(self) -> Optional[int]:
        """First future cycle at which the quiescent machine can move."""
        candidates = []
        if self._completion_buckets:
            candidates.append(min(self._completion_buckets))
        if (not self.fetch_halted and self.fetch_wait_for is None
                and self.cycle < self.fetch_resume_cycle
                and len(self.fetch_buffer) < 4 * self.params.fetch_width):
            candidates.append(self.fetch_resume_cycle)
        if self.fetch_buffer:
            ready = self.fetch_buffer[0][0]
            if ready > self.cycle:
                candidates.append(ready)
        # A load stalled on exhausted MSHRs unblocks at the expiry that
        # first brings the busy count under the pool size.
        for di in self.lsq:
            if (di.is_load and di.addr_ready and not di.mem_issued
                    and not di.mem_complete and not di.squashed):
                busy = sorted(t for t in self.hierarchy._mshr_busy_until
                              if t > self.cycle)
                mshrs = self.hierarchy.params.mshrs
                if len(busy) >= mshrs:
                    candidates.append(busy[len(busy) - mshrs])
                break
        if not candidates:
            return None
        return min(candidates)

    def _quiet_jump(self, trans_before: int, res_before: int) -> None:
        """Jump time to just before the next event, accounting in batch."""
        cycle = self.cycle
        # Land no later than the last cycle before the deadlock detector or
        # the cycle cap trips: the next cycle trips it at the very cycle a
        # stepped run does.
        horizon = self.last_retire_cycle + 100_000
        if self.params.max_cycles - 1 < horizon:
            horizon = self.params.max_cycles - 1
        event = self._next_event_cycle()
        if event is None:
            land = horizon
        else:
            land = min(event - 1, horizon)
        skipped = land - cycle
        if skipped <= 0:
            return
        # Stall attribution: the skipped cycles repeat the detection
        # cycle's cause; only the empty-window case is cycle-dependent
        # (squash-recovery turns into fetch-starved at the refill boundary).
        if self.rob_head >= len(self.rob):
            recovery_end = (self.last_squash_cycle
                            + self.params.redirect_penalty
                            + self.params.frontend_delay)
            n_recovery = min(land, recovery_end) - cycle
            if n_recovery < 0:
                n_recovery = 0
            self.stall_counts[_SQUASH_RECOVERY] += n_recovery
            self.stall_counts[_FETCH_STARVED] += skipped - n_recovery
        else:
            self.stall_counts[int(attribute_cycle(self))] += skipped
        # The hold counters: replay the detection cycle's refusals.
        delta = self._transmitters_delayed - trans_before
        if delta:
            self._transmitters_delayed += delta * skipped
        delta = self._resolutions_delayed - res_before
        if delta:
            self._resolutions_delayed += delta * skipped
        self.cycle = land

    # ------------------------------------------------------------- writeback
    def _schedule_completion(self, di: DynInst, latency: int) -> None:
        di.ready_cycle = self.cycle + max(1, latency)
        self._completion_buckets.setdefault(di.ready_cycle, []).append(di)

    # ------------------------------------------------------------------ issue
    # Value operations.  Class attributes, so the paired core of
    # repro.pipeline.relational rebinds them by type and this core runs no
    # per-instruction test for paired values.
    _alu = staticmethod(alu_result)
    _address = staticmethod(effective_address)

    def _branch_outcome(self, di: DynInst) -> None:
        taken = branch_taken(di.inst, di.rs1_value, di.rs2_value)
        di.actual_taken = taken
        di.actual_target = di.inst.imm if taken else di.pc + 1
        di.mispredicted = taken != di.predicted_taken

    def _jump_outcome(self, di: DynInst) -> None:
        di.actual_taken = True
        di.actual_target = (di.rs1_value + di.inst.imm) & WORD_MASK
        di.mispredicted = di.actual_target != di.predicted_target

    def _execute(self, di: DynInst) -> None:
        """Begin execution of a non-ALU RS entry (operands are ready);
        issue computes the ALU class inline."""
        self._activity += 1
        di.issued = True
        di.issue_cycle = self.cycle
        if di.engine_delayed:
            di.engine_delayed = False
        rename = self.rename
        kind = di.kind
        if di.info.reads_rs1:
            di.rs1_value = rename.read(di.prs1)
        if not di.is_store and di.info.reads_rs2:
            di.rs2_value = rename.read(di.prs2)
        if kind == Kind.BRANCH:
            self._branch_outcome(di)
            self._schedule_completion(di, 1)
            self.pending_control.append(di)
            return
        if kind == Kind.JUMP_REG:
            self._jump_outcome(di)
            di.result = (di.pc + 1) & WORD_MASK
            self._schedule_completion(di, 1)
            self.pending_control.append(di)
            return
        if kind == Kind.LOAD:
            di.address = self._address(di.inst, di.rs1_value)
            di.addr_ready = True
            return
        if kind == Kind.STORE:
            di.address = self._address(di.inst, di.rs1_value)
            di.addr_ready = True
            # The address computation itself is the transmitting event for a
            # store (TLB lookup etc.), visible to the attacker immediately.
            self.observer.store_address(
                self.cycle, self.hierarchy.l1.line_address(di.address))
            if self._mds_enabled():
                # Deferred to the next memory stage: squashing here would
                # invalidate the issue loop's view of the RS.
                self._pending_mds_checks.append(di)
            return
        raise SimulationError(f"unexpected kind in RS: {kind}")

    # ----------------------------------------------------------- memory stage
    def _memory_stage(self) -> None:
        if self._pending_mds_checks:
            for store in self._pending_mds_checks:
                if not store.squashed:
                    self._check_memory_order_violation(store)
            self._pending_mds_checks.clear()
        if not self.lsq:
            return
        ready = self.rename.ready
        value = self.rename.value
        for di in self.lsq:
            if di.squashed:
                continue
            if di.is_store:
                if not di.complete and di.addr_ready:
                    prs2 = di.prs2
                    if prs2 < 0 or ready[prs2]:
                        di.rs2_value = 0 if prs2 < 0 else value[prs2]
                        di.complete = True
                        self._activity += 1
                continue
            # Loads.
            if di.mem_complete or not di.addr_ready or di.mem_issued:
                continue
            self._try_issue_load(di)

    def _try_issue_load(self, load: DynInst) -> None:
        blocker, forward_store = self._memory_dependences(load)
        if blocker:
            return
        if forward_store is not None and not forward_store.complete:
            return    # forwarding needed but the store data is not ready yet
        if forward_store is not None:
            self.n_loads_forwarded += 1
            load.forwarded_from = forward_store
            load.fwding_st = forward_store.seq
            if self.engine.skip_cache_for_forwarding(load, forward_store):
                if self.checker is not None:
                    self.checker.on_forward_skip(load, forward_store)
                load.result = self._truncate(forward_store.rs2_value,
                                             load.info.mem_size)
                load.mem_issued = True
                self._activity += 1
                self._schedule_completion(load, 1)
                return
            self.n_loads_forwarded_cache += 1
        if self.checker is not None:
            self.checker.on_cache_access(load)
        access = self.hierarchy.access(load.address, self.cycle)
        if access.stalled:
            return    # MSHRs exhausted; retry next cycle
        if access.l1_evicted_line is not None:
            self.engine.on_l1_evict(access.l1_evicted_line)
        line = self.hierarchy.l1.line_address(load.address)
        self.observer.load_access(self.cycle, line, access.level)
        if forward_store is not None:
            load.result = self._truncate(forward_store.rs2_value,
                                         load.info.mem_size)
        else:
            load.result = self.memory.load(load.address, load.info.mem_size)
        load.mem_issued = True
        self._activity += 1
        self._schedule_completion(load, access.latency)

    def _memory_dependences(self, load: DynInst):
        """Scan older stores in the LSQ.

        Returns (blocked, forwarding_store).  Conservative memory disambiguation
        by default: a load waits until every older store address is known.
        With memory-dependence speculation enabled, unknown older addresses
        are ignored (violations squash later).
        """
        speculate = self._mds_enabled()
        forward: Optional[DynInst] = None
        size = load.info.mem_size
        for st in self.lsq:
            if st.seq >= load.seq:
                break
            if not st.is_store or st.squashed:
                continue
            if not st.addr_ready:
                if speculate:
                    continue
                return True, None
            if self._overlaps(st, load):
                if st.address == load.address and st.info.mem_size >= size:
                    forward = st   # youngest exact-covering store wins
                else:
                    # Partial overlap: wait for the store to retire and drain.
                    return True, None
        return False, forward

    def _mds_enabled(self) -> bool:
        """Memory-dependence speculation (Section 6.7, "Memory dependence
        speculation").

        Enabled by the machine parameter, but only on the insecure baseline:
        the protection engines in this reproduction use conservative
        disambiguation, because a speculatively issued load's violation
        squash is itself an implicit channel that would have to be delayed
        until STLPublic — delaying the *issue* is equivalent and simpler.
        """
        return (self.params.memory_dependence_speculation
                and not self.engine.protects_speculative_data)

    def _check_memory_order_violation(self, store: DynInst) -> None:
        """A store's address just resolved: squash any younger load that
        speculatively read stale data for an overlapping address."""
        for load in self.lsq:
            if load.seq <= store.seq or not load.is_load or load.squashed:
                continue
            if not load.mem_issued or load.address is None:
                continue
            if not self._overlaps(store, load):
                continue
            if (load.forwarded_from is not None
                    and load.forwarded_from.seq >= store.seq):
                continue        # took its data from this store or younger
            self.n_mem_order_violations += 1
            self._squash_from(load)
            return

    def _squash_from(self, victim: DynInst) -> None:
        """Flush ``victim`` and everything younger; refetch from its PC."""
        target_seq = victim.seq - 1
        anchor = None
        for di in self.in_flight():
            if di.seq == target_seq:
                anchor = di
                break
        if anchor is None:
            # The victim is the oldest in-flight instruction: emulate by
            # squashing younger-than a synthetic anchor.
            class _Anchor:
                seq = target_seq
                pc = victim.pc
            anchor = _Anchor()
        self._squash_after(anchor)
        self._redirect_fetch(victim.pc)

    @staticmethod
    def _overlaps(a: DynInst, b: DynInst) -> bool:
        a0, a1 = a.address, a.address + a.info.mem_size
        b0, b1 = b.address, b.address + b.info.mem_size
        return a0 < b1 and b0 < a1

    @staticmethod
    def _truncate(value: int, size: int) -> int:
        return value & ((1 << (8 * size)) - 1)

    # ------------------------------------------------------------ resolution
    def _resolve_control(self) -> None:
        if not self.pending_control:
            return
        still_pending: list[DynInst] = []
        resolved_any = False
        pending = self.pending_control
        if len(pending) > 1:
            pending = sorted(pending, key=lambda d: d.seq)
        for di in pending:
            if di.squashed or di.resolution_applied:
                continue
            if resolved_any or not di.complete:
                still_pending.append(di)
                continue
            if not (di.reached_vp or self.engine.may_resolve(di)):
                self._resolutions_delayed += 1
                di.resolution_delayed = True
                still_pending.append(di)
                continue
            self._apply_resolution(di)
            if di.mispredicted:
                resolved_any = True   # squash invalidates younger pending ones
        self.pending_control = [d for d in still_pending
                                if not d.squashed and not d.resolution_applied]

    def _apply_resolution(self, di: DynInst) -> None:
        self._activity += 1
        if self.checker is not None:
            self.checker.on_resolve(di)
        di.resolution_applied = True
        di.resolution_delayed = False
        # Squash *before* the predictor update: the squash restores the
        # speculative RAS/history checkpoint taken at this prediction, and
        # ``resolve`` then applies the authoritative repair (the corrected
        # history bit) on top of the restored state.
        if di.mispredicted:
            self.n_mispredicts += 1
            self._squash_after(di)
            self._redirect_fetch(di.actual_target)
        self.predictor.resolve(di.pc, di.inst, di.actual_taken,
                               di.actual_target, di.history_snapshot,
                               di.mispredicted)
        self.observer.predictor_update(self.cycle, di.pc, di.actual_taken)

    def _squash_after(self, di: DynInst) -> None:
        """Flush every instruction younger than ``di``."""
        self._activity += 1
        self.n_squashes += 1
        self.last_squash_cycle = self.cycle
        self.observer.squash(self.cycle, di.pc)
        # Undo wrong-path speculative predictor updates (RAS pushes/pops,
        # gshare history bits) by restoring the checkpoint taken before the
        # oldest squashed prediction.  Checkpoints are seq-ordered, so
        # popping from the right leaves ``restore`` holding the oldest one.
        checkpoints = self._bp_checkpoints
        restore = None
        while checkpoints and checkpoints[-1][0] > di.seq:
            restore = checkpoints.pop()
        if restore is not None:
            self.predictor.restore_speculative_state(restore[1])
        rob = self.rob
        squashed: list[DynInst] = []
        while len(rob) > self.rob_head and rob[-1].seq > di.seq:
            victim = rob.pop()
            victim.squashed = True
            squashed.append(victim)
        self.n_squashed_insts += len(squashed)
        if squashed:
            # Youngest first: the window's slot tail retracts to the
            # oldest victim's slot.
            self._slot_tail = squashed[-1].fp_slot
            # Every squash filters its victims out of each structure at
            # once, so the ``squashed`` flag marks exactly these victims.
            if self.lsq:
                self.lsq = [d for d in self.lsq if not d.squashed]
                self._sq_used = sum(1 for d in self.lsq if d.is_store)
                self._lq_used = len(self.lsq) - self._sq_used
            if self.pending_control:
                self.pending_control = [d for d in self.pending_control
                                        if not d.squashed]
            # The engine sees victims before rename-undo recycles their
            # destination registers (it must drop pending taint broadcasts).
            self.engine.on_squash(squashed)
            if self.squash_sink is not None:
                self.squash_sink.extend(squashed)
            undo = self.rename.undo
            for victim in squashed:    # youngest-first, as popped
                undo(victim)
            # The victims still waiting for issue free their RS entries.
            needs_rs = self._table.needs_rs
            self._rs_count -= sum(1 for v in squashed
                                  if not v.issued and needs_rs[v.pc])
            if not self._stepped:
                self._park_victims(squashed)
        if not self._stepped and self.fetch_buffer:
            # Cleared fetch-buffer entries were never renamed and are
            # referenced by nothing else: recycle them immediately.
            self._repool(d for _, d in self.fetch_buffer)
        self.fetch_buffer.clear()
        self.fetch_wait_for = None
        self._vp_scan = min(self._vp_scan, len(rob))
        if self.checker is not None:
            self.checker.on_squash(di, squashed)

    def _redirect_fetch(self, target: int) -> None:
        self.fetch_pc = target
        self.fetch_halted = False
        self.fetch_resume_cycle = self.cycle + self.params.redirect_penalty

    # ---------------------------------------------------------------- commit
    def _commit(self) -> None:
        for _ in range(self.params.commit_width):
            di = self.head_inst()
            if di is None or not self._can_retire(di):
                break
            self._retire(di)
            if di.kind == Kind.HALT:
                self.halted = True
                break
        if self.rob_head > 4096:
            del self.rob[:self.rob_head]
            self._vp_scan -= self.rob_head
            self.rob_head = 0

    def _can_retire(self, di: DynInst) -> bool:
        if di.kind in (Kind.HALT, Kind.NOP):
            return True
        if di.is_load:
            return di.mem_complete
        if di.is_store:
            return di.complete
        if di.is_predicted_control:
            return di.complete and di.resolution_applied
        return di.complete

    def _retire(self, di: DynInst) -> None:
        self._activity += 1
        if self.checker is not None:
            self.checker.on_retire(di)
        if di.is_store:
            self.memory.store(di.address, di.rs2_value, di.info.mem_size)
            access = self.hierarchy.access(di.address, self.cycle, is_write=True)
            if access.l1_evicted_line is not None:
                self.engine.on_l1_evict(access.l1_evicted_line)
            self.observer.store_write(
                self.cycle, self.hierarchy.l1.line_address(di.address),
                access.level)
            self.engine.on_store_retire(di)
            self.lsq.remove(di)
            self._sq_used -= 1
        elif di.is_load:
            self.lsq.remove(di)
            self._lq_used -= 1
        di.retired = True
        di.retire_cycle = self.cycle
        di.reached_vp = True
        # Retired instructions can never be squashed: their predictor-state
        # checkpoints are dead.  Retire is in seq order, so pruning from the
        # left keeps the deque bounded by the in-flight window.
        checkpoints = self._bp_checkpoints
        while checkpoints and checkpoints[0][0] <= di.seq:
            checkpoints.popleft()
        self.rename.commit(di)
        self.engine.on_retire(di)
        self.retired_count += 1
        if self.retired_pcs is not None:
            self.retired_pcs.append(di.pc)
        self.rob_head += 1
        if self._vp_scan < self.rob_head:
            self._vp_scan = self.rob_head

    # -------------------------------------------------------- visibility point
    def advance_vp(self, is_obstacle: Callable[[DynInst], bool]) -> list:
        """Advance the visibility-point frontier (paper Section 7.3).

        ``is_obstacle`` encodes the attack model: an instruction blocks
        younger instructions from reaching the VP while the predicate holds.
        Returns the instructions that newly reached the VP this cycle, oldest
        first.  The frontier is monotone: once an instruction reaches the VP
        it stays there (squashes only remove instructions beyond a resolved
        branch, which is itself at or before the frontier blocker).
        """
        newly: list[DynInst] = []
        scan_start = self._vp_scan
        while self._vp_scan < len(self.rob):
            di = self.rob[self._vp_scan]
            if not di.reached_vp:
                di.reached_vp = True
                newly.append(di)
            if is_obstacle(di):
                break
            self._vp_scan += 1
        if newly or self._vp_scan != scan_start:
            self._activity += 1
        return newly

    def _maybe_release_fetch_wait(self) -> None:
        di = self.fetch_wait_for
        if di is None:
            return
        if di.squashed:
            self.fetch_wait_for = None
            self._activity += 1


    # ------------------------------------------------------- batched phases
    # DynInst recycling, then the phases over the decode tables that the
    # cycle body calls besides the memory stage, resolution and commit
    # above.

    def _repool(self, carcasses) -> None:
        pool = self._pool
        for d in carcasses:
            p = pool.get(d.pc)
            if p is None:
                pool[d.pc] = [d]
            else:
                p.append(d)

    def _park_victims(self, squashed: list) -> None:
        """Queue squash victims for recycling (not in stepped mode)."""
        # Victims become recyclable once the squash cycle has passed (the
        # cycle's later readers test ``squashed`` or a seq tag) and any
        # still-scheduled completion-bucket entry has been popped by
        # writeback.  Victims with no future bucket entry take the cheap
        # cooldown list; only in-flight ones pay the release-ordering heap.
        cycle = self.cycle
        cool = self._cool
        if cool and cycle > self._cool_cycle:
            self._repool(cool)
            cool.clear()
        self._cool_cycle = cycle
        quar = self._quar
        for victim in squashed:
            rc = victim.ready_cycle
            if rc > cycle:
                heappush(quar, (rc, victim.seq, victim))
            else:
                cool.append(victim)

    def _writeback_batched(self) -> None:
        cycle = self.cycle
        done = self._completion_buckets.pop(cycle, None)
        if not done:
            return
        rename = self.rename
        value = rename.value
        ready = rename.ready
        wait = self._rs_wait
        heap = self._rs_ready
        fin = self._fin_loads
        for di in done:
            # A quarantined squash victim stays un-recycled until this pop
            # has happened, so the skip below always sees the squashed
            # incarnation that scheduled the entry.
            if di.squashed:
                continue
            self._activity += 1
            di.complete = True
            di.complete_cycle = cycle
            if di.is_load:
                fin.append(di)
            result = di.result
            if result is not None:
                prd = di.prd
                if prd >= 0:
                    value[prd] = result
                    ready[prd] = True
                    waiters = wait.pop(prd, None)
                    if waiters:
                        for wseq, wdi in waiters:
                            if wdi.seq == wseq:
                                n = wdi.fp_wait - 1
                                wdi.fp_wait = n
                                if n == 0:
                                    heappush(heap, (wseq, wdi))

    def _issue_batched(self) -> None:
        heap = self._rs_ready
        gated = self._rs_gated
        if not heap and not gated:
            return
        width = self.params.issue_width
        may_compute_address = self.engine.may_compute_address
        checker = self.checker
        alu = self._alu
        aluc = self._table.aluc
        value = self.rename.value
        buckets = self._completion_buckets
        cycle = self.cycle
        issued = 0
        delayed = 0
        new_gated: list = []
        keep = new_gated.append
        gi = 0
        glen = len(gated)
        # Merge the gated list (seq-sorted) with the ready heap so
        # candidates are examined in program order (seq order), as a scan
        # of a dispatch-ordered reservation station would.
        while True:
            if gi < glen:
                if heap and heap[0][0] < gated[gi][0]:
                    entry = heappop(heap)
                else:
                    entry = gated[gi]
                    gi += 1
            elif heap:
                entry = heappop(heap)
            else:
                break
            seq, di = entry
            # Lazy purge: squashes (and pooled recycling) invalidate
            # entries in place instead of scanning these structures.
            if di.seq != seq or di.squashed or di.issued:
                continue
            if issued >= width:
                # Width exhausted: the rest of the RS stays untouched — in
                # particular gated transmitters past this point are not
                # counted delayed and the engine is not consulted.
                keep(entry)
                continue
            if di.is_transmitter and not (di.reached_vp
                                          or may_compute_address(di)):
                delayed += 1
                di.engine_delayed = True
                keep(entry)
                continue
            if aluc[di.pc]:
                # The ALU class: compute and schedule inline.
                self._activity += 1
                di.issued = True
                di.issue_cycle = cycle
                if di.engine_delayed:
                    di.engine_delayed = False
                info = di.info
                if info.reads_rs1:
                    di.rs1_value = value[di.prs1]
                if info.reads_rs2:
                    di.rs2_value = value[di.prs2]
                # An operand the op does not read stays None; its table
                # entry ignores it.
                di.result = alu(di.inst, di.rs1_value, di.rs2_value)
                lat = info.latency
                rc = cycle + (lat if lat > 1 else 1)
                di.ready_cycle = rc
                b = buckets.get(rc)
                if b is None:
                    buckets[rc] = [di]
                else:
                    b.append(di)
            else:
                if checker is not None and di.is_transmitter:
                    checker.on_transmit(di)
                self._execute(di)
            self._rs_count -= 1
            issued += 1
        if delayed:
            self._transmitters_delayed += delayed
        self._rs_gated = new_gated

    def _finish_loads_batched(self) -> None:
        # Event-driven: every load completes through a writeback bucket pop
        # (the only site that sets ``complete`` on loads), which queued it
        # here — no LSQ scan.  Drained in seq order (the order of the
        # program-ordered LSQ; bucket order is schedule order) and
        # re-checked for squashes, which _memory_stage's memory-order
        # violation check can raise between writeback and this phase.
        pending = self._fin_loads
        if not pending:
            return
        self._fin_loads = []
        if len(pending) > 1:
            pending.sort(key=_seq_of)
        on_load_data = self.engine.on_load_data
        for di in pending:
            if di.squashed:
                continue
            di.mem_complete = True
            self._activity += 1
            on_load_data(di)

    def _dispatch_batched(self) -> None:
        self.dispatch_block = -1
        buf = self.fetch_buffer
        cycle = self.cycle
        if not buf or buf[0][0] > cycle:
            return
        params = self.params
        width = params.issue_width
        rob_entries = params.rob_entries
        rs_entries = params.rs_entries
        lq_entries = params.lq_entries
        sq_entries = params.sq_entries
        rename = self.rename
        rat = rename.rat
        free = rename.free
        ready = rename.ready
        value = rename.value
        on_rename = self.engine.on_rename
        checker = self.checker
        rob = self.rob
        rob_head = self.rob_head
        table = self._table
        hasdest = table.hasdest
        dclass_t = table.dclass
        rs_wait = self._rs_wait
        heap = self._rs_ready
        lsq = self.lsq
        slot = self._slot_tail
        dispatched = 0
        while buf and dispatched < width and buf[0][0] <= cycle:
            di = buf[0][1]
            pc = di.pc
            dc = dclass_t[pc]
            if len(rob) - rob_head >= rob_entries:
                self.dispatch_block = _ROB_FULL
                break
            if not free and hasdest[pc]:
                self.dispatch_block = _ROB_FULL
                break
            if dc <= DC_STORE:                        # RS/LQ/SQ resources
                if self._rs_count >= rs_entries:
                    self.dispatch_block = _RS_FULL
                    break
                if dc == DC_LOAD and self._lq_used >= lq_entries:
                    self.dispatch_block = _LSQ_FULL
                    break
                if dc == DC_STORE and self._sq_used >= sq_entries:
                    self.dispatch_block = _LSQ_FULL
                    break
            buf.popleft()
            self._activity += 1
            di.dispatch_cycle = cycle
            # Rename: the free-list check above already guaranteed a
            # register when one is needed.
            inst = di.inst
            info = di.info
            # A pc that does not read/write a register leaves the recycled
            # carcass's field at -1 (no life at this pc ever set it), so the
            # locals mirror di.prs1/prs2/prd exactly.
            prs1 = prs2 = prd = -1
            if info.reads_rs1:
                di.prs1 = prs1 = rat[inst.rs1]
            if info.reads_rs2:
                di.prs2 = prs2 = rat[inst.rs2]
            if info.writes_rd and inst.rd != 0:
                prd = free.popleft()
                di.old_prd = rat[inst.rd]
                di.prd = prd
                rat[inst.rd] = prd
                ready[prd] = False
                value[prd] = 0
            di.fp_slot = slot
            slot = slot + 1 if slot + 1 < rob_entries else 0
            on_rename(di)
            if checker is not None:
                checker.on_rename(di)
            rob.append(di)
            if dc <= DC_STORE:
                self._rs_count += 1
                seq = di.seq
                nwait = 0
                if prs1 >= 0 and not ready[prs1]:
                    w = rs_wait.get(prs1)
                    if w is None:
                        rs_wait[prs1] = [(seq, di)]
                    else:
                        w.append((seq, di))
                    nwait = 1
                if dc != DC_STORE:
                    # Stores split address (rs1) from data (rs2): address
                    # issue only needs rs1; data is captured in the LSQ.
                    if prs2 >= 0 and prs2 != prs1 and not ready[prs2]:
                        w = rs_wait.get(prs2)
                        if w is None:
                            rs_wait[prs2] = [(seq, di)]
                        else:
                            w.append((seq, di))
                        nwait += 1
                di.fp_wait = nwait
                if nwait == 0:
                    heappush(heap, (seq, di))
                if dc:                                # DC_LOAD / DC_STORE
                    lsq.append(di)
                    if dc == DC_STORE:
                        self._sq_used += 1
                    else:
                        self._lq_used += 1
            elif dc == DC_NONE:                       # HALT / NOP
                di.complete = True
            else:                                     # DC_JUMP: JAL
                result = (pc + 1) & WORD_MASK
                di.result = result
                di.actual_taken = True
                di.actual_target = inst.imm
                di.resolution_applied = True
                if prd >= 0:
                    # The result of a just-allocated register: no live
                    # waiter can exist for it, so no wakeup scan is needed.
                    value[prd] = result
                    ready[prd] = True
                di.complete = True
            dispatched += 1
        self._slot_tail = slot

    def _fetch_batched(self) -> None:
        cycle = self.cycle
        cool = self._cool
        if cool and cycle > self._cool_cycle:
            self._repool(cool)
            cool.clear()
        quar = self._quar
        if quar and quar[0][0] <= cycle:
            released = []
            while quar and quar[0][0] <= cycle:
                released.append(heappop(quar)[2])
            self._repool(released)
        if (self.fetch_halted or self.fetch_wait_for is not None
                or cycle < self.fetch_resume_cycle):
            self._maybe_release_fetch_wait()
            return
        buf = self.fetch_buffer
        if len(buf) >= 4 * self.params.fetch_width:
            return
        table = self._table
        kindc = table.kindc
        runlen = table.runlen
        insts = table.insts
        infos = table.infos
        rtier = table.rtier
        prog_len = len(insts)
        pool_get = self._pool.get
        new = DynInst.__new__
        cls = DynInst
        append = buf.append
        checkpoints = self._bp_checkpoints
        predictor = self.predictor
        pc = self.fetch_pc
        seq = self.seq
        fetched = 0
        budget = self.params.fetch_width
        ready = cycle + self.params.frontend_delay
        while budget > 0:
            if pc < 0 or pc >= prog_len:
                # Off-program wrong-path fetch: implicit halt bubble.
                self.fetch_halted = True
                self._activity += 1
                break
            kc = kindc[pc]
            if kc == KC_SIMPLE:
                n = runlen[pc]
                if n > budget:
                    n = budget
                end = pc + n
                while pc < end:
                    p = pool_get(pc)
                    if p:
                        # Inlined DynInst.reinit_recycled (hot path): the
                        # same-pc slim re-stamp, tier 0/1 only (KC_SIMPLE
                        # has no branches).
                        di = p.pop()
                        di.seq = seq
                        di.issued = False
                        di.complete = False
                        di.ready_cycle = -1
                        di.retired = False
                        di.squashed = False
                        di.engine_delayed = False
                        di.resolution_delayed = False
                        di.reached_vp = False
                        if rtier[pc]:
                            di.addr_ready = False
                            di.mem_issued = False
                            di.mem_complete = False
                            di.forwarded_from = None
                            di.fwding_st = -1
                    else:
                        di = new(cls)
                        di.reinit(seq, pc, insts[pc], infos[pc])
                    append((ready, di))
                    seq += 1
                    pc += 1
                budget -= n
                fetched += n
                continue
            inst = insts[pc]
            p = pool_get(pc)
            if p:
                di = p.pop()
                di.reinit_recycled(seq, rtier[pc])
            else:
                di = new(cls)
                di.reinit(seq, pc, inst, infos[pc])
            seq += 1
            fetched += 1
            if kc == KC_HALT:
                append((ready, di))
                self.fetch_halted = True
                break
            # Control flow: checkpoint the speculative predictor state (RAS,
            # gshare history) before the prediction mutates it; restored by
            # ``_squash_after`` if this instruction gets squashed.
            checkpoints.append((di.seq, predictor.speculative_state()))
            taken, target, snapshot = predictor.predict(pc, inst)
            di.predicted_taken = taken
            di.predicted_target = target
            di.history_snapshot = snapshot
            append((ready, di))
            if target is None:
                di.mispredicted = True
                self.fetch_wait_for = di
                break
            pc = target
            budget -= 1
        self.fetch_pc = pc
        self.seq = seq
        if fetched:
            self.n_fetched += fetched
            self._activity += fetched
            if self._stepped:
                # Stepped mode records fetch cycles too.  The new entries
                # are the buffer's last ``fetched``: stamping them here
                # keeps the run-length loop above lean in the default run.
                for index in range(-fetched, 0):
                    buf[index][1].fetch_cycle = cycle
