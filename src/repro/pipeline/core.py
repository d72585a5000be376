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
"""

from __future__ import annotations

from collections import deque
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
from repro.security.observer import Observer

_RETIRING = int(StallCause.RETIRING)


class SimulationError(Exception):
    """Raised when the simulation wedges (deadlock / cycle cap)."""


class SimResult:
    """Outcome of one simulation run.

    ``metrics`` is the hierarchical :class:`~repro.obs.metrics.Metrics`
    tree (stall accounting, taint lifecycle, engine counters); ``stats``
    is the flat compatibility view the pre-observability code consumed
    (original key names, engine counters under an ``engine.`` prefix).
    """

    def __init__(self, core: "OoOCore", halted: bool):
        self.metrics = core.build_metrics()
        self.cycles = core.cycle
        self.retired = core.retired_count
        self.halted = halted
        self.arch_regs = [core.rename.arch_value(i) for i in range(NUM_ARCH_REGS)]
        self.memory = core.memory
        self.observer = core.observer
        self.stats = core.legacy_stats()
        engine_tree = self.metrics.groups.get("engine")
        if engine_tree is not None:
            self.stats.update({f"engine.{k}": v
                               for k, v in engine_tree.flatten().items()})
        self.config_name = core.engine.name
        self.retired_pcs = core.retired_pcs

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
                 params: Optional[MachineParams] = None,
                 observer: Optional[Observer] = None,
                 predictor: Optional[BranchPredictor] = None,
                 record_retired_pcs: bool = False):
        self.program = program
        self.params = params or MachineParams()
        self.params.validate()
        self.engine = engine or ProtectionEngine()
        self.observer = observer or Observer()
        self.memory = MainMemory(program.initial_memory,
                                 uninit_seed=self.params.uninit_secret_seed)
        self.hierarchy = MemoryHierarchy(self.params.hierarchy)
        self.predictor = predictor or BranchPredictor(
            self.params.bp_history_bits, self.params.btb_entries,
            self.params.ras_entries)
        self.rename = RenameUnit(self.params.num_phys_regs)

        self.cycle = 0
        self.seq = 0
        self.retired_count = 0
        self.halted = False
        self.retired_pcs: Optional[list] = [] if record_retired_pcs else None

        # In-flight structures.  ``rob`` is program-ordered; the head pointer
        # avoids O(n) pops and is compacted periodically.
        self.rob: list[DynInst] = []
        self.rob_head = 0
        self.rs: list[DynInst] = []
        self.lsq: list[DynInst] = []
        self.pending_control: list[DynInst] = []
        self._completion_buckets: dict[int, list[DynInst]] = {}
        self._pending_mds_checks: list[DynInst] = []

        # Frontend.
        self.fetch_pc = 0
        self.fetch_buffer: list[tuple[int, DynInst]] = []   # (ready_cycle, di)
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
        # Optional sink for squashed instructions (used by the tracer).
        self.squash_sink: Optional[list] = None

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

        # Activity counter for the fast path (repro.fastpath): bumped at
        # every site that mutates machine state beyond the per-cycle
        # monotone counters.  A step that leaves it unchanged proved the
        # cycle was a pure no-op, so the vector backend may fast-forward
        # time to the next scheduled event.  Over-bumping is safe (it only
        # costs skip opportunities); a missed bump would be unsound.
        self._activity = 0

        # Stall-cause cycle accounting (repro.obs.stall): one bucket per
        # cycle, indexed by StallCause; the sum equals ``cycle`` always.
        self.stall_counts: list[int] = [0] * NUM_CAUSES
        self.dispatch_block = -1          # StallCause index or -1, per cycle
        self.last_squash_cycle = -(10 ** 9)
        self.engine.attach(self)
        # Explicit flushes (attack-harness clflush) must reach the shadow L1
        # like demand evictions do, or it tracks non-resident lines.
        self.hierarchy.on_l1_invalidate = self.engine.on_l1_evict

        # Lockstep invariant sanitizer (repro.check).  ``None`` when
        # checking is off: every hook site below guards on ``is not None``,
        # so an unchecked run pays one attribute test per event and nothing
        # else.  Imported lazily to keep the hot path import-free.
        self.checker = None
        if self.params.check_level != "off":
            from repro.check.sanitizer import Sanitizer
            self.checker = Sanitizer(self, self.params.check_level)

    # ------------------------------------------------------------- metrics
    def legacy_stats(self) -> dict:
        """Flat compatibility view with the pre-observability key names."""
        return {
            "squashes": self.n_squashes,
            "mispredicts": self.n_mispredicts,
            "squashed_insts": self.n_squashed_insts,
            "fetched": self.n_fetched,
            "transmitters_delayed_cycles": self._transmitters_delayed,
            "resolutions_delayed_cycles": self._resolutions_delayed,
            "loads_forwarded": self.n_loads_forwarded,
            "loads_forwarded_with_cache_access": self.n_loads_forwarded_cache,
            "mem_order_violations": self.n_mem_order_violations,
        }

    def build_metrics(self) -> Metrics:
        """Assemble the hierarchical metrics tree for this run.

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
        m.groups["engine"] = self.engine.metrics_tree()
        if self.checker is not None:
            m.groups["check"] = self.checker.metrics_tree()
        return m

    # ----------------------------------------------------------------- utils
    def rob_occupancy(self) -> int:
        return len(self.rob) - self.rob_head

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
        """Simulate until HALT retires, the budget is hit, or deadlock."""
        budget = max_instructions
        last_progress_cycle = 0
        last_retired = 0
        while not self.halted and self.retired_count < budget:
            self.step()
            if self.retired_count != last_retired:
                last_retired = self.retired_count
                last_progress_cycle = self.cycle
            elif self.cycle - last_progress_cycle > 100_000:
                raise SimulationError(
                    f"{self.engine.name}/{self.program.name}: no retirement "
                    f"for 100k cycles at cycle {self.cycle} "
                    f"(head={self.head_inst()!r})")
            if self.cycle >= self.params.max_cycles:
                raise SimulationError(
                    f"{self.program.name}: exceeded max_cycles")
        if self.checker is not None:
            self.checker.on_finish(self.halted)
        return SimResult(self, self.halted)

    def step(self) -> None:
        """Advance the machine by one clock cycle."""
        self.cycle += 1
        retired_before = self.retired_count
        self._writeback()
        self._memory_stage()
        self._resolve_control()
        self._commit()
        self._issue()
        self._dispatch()
        self._fetch()
        self.engine.tick()
        # Attribute the cycle (repro.obs.stall).  Retiring cycles — the
        # common case — are counted inline without the classifier.
        if self.retired_count != retired_before:
            self.stall_counts[_RETIRING] += 1
        else:
            self.stall_counts[attribute_cycle(self)] += 1
        if self.checker is not None:
            self.checker.on_cycle()

    # ------------------------------------------------------------- writeback
    def _writeback(self) -> None:
        done = self._completion_buckets.pop(self.cycle, None)
        if not done:
            return
        for di in done:
            if di.squashed:
                continue
            self._activity += 1
            di.complete = True
            di.complete_cycle = self.cycle
            if di.result is not None:
                self.rename.write_result(di, di.result)

    def _schedule_completion(self, di: DynInst, latency: int) -> None:
        di.ready_cycle = self.cycle + max(1, latency)
        self._completion_buckets.setdefault(di.ready_cycle, []).append(di)

    # ------------------------------------------------------------------ issue
    def _issue(self) -> None:
        issued = 0
        width = self.params.issue_width
        remaining: list[DynInst] = []
        append = remaining.append
        # Hoisted out of the loop: the readiness test runs once per RS entry
        # per cycle, so the RAT's ready list is indexed directly instead of
        # going through two attribute lookups and a method call.
        ready = self.rename.ready
        may_compute_address = self.engine.may_compute_address
        checker = self.checker
        delayed = 0
        for di in self.rs:
            if di.squashed:
                continue
            if issued >= width:
                append(di)
                continue
            prs1 = di.prs1
            if not (prs1 < 0 or ready[prs1]):
                append(di)
                continue
            if not di.is_store:
                prs2 = di.prs2
                if not (prs2 < 0 or ready[prs2]):
                    append(di)
                    continue
            # Stores split address (rs1) from data (rs2): address issue only
            # needs rs1; data is captured in the LSQ when it becomes ready.
            if di.is_transmitter and not (di.reached_vp
                                          or may_compute_address(di)):
                delayed += 1
                di.engine_delayed = True
                append(di)
                continue
            if checker is not None and di.is_transmitter:
                checker.on_transmit(di)
            self._execute(di)
            issued += 1
        self._transmitters_delayed += delayed
        self.rs = remaining

    def _operands_ready_for_issue(self, di: DynInst) -> bool:
        rename = self.rename
        if di.is_store:
            # Stores split address (rs1) from data (rs2): address issue only
            # needs rs1; data is captured in the LSQ when it becomes ready.
            return rename.operand_ready(di.prs1)
        return (rename.operand_ready(di.prs1)
                and rename.operand_ready(di.prs2))

    def _execute(self, di: DynInst) -> None:
        """Begin execution of an RS entry (operands are ready)."""
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
        if kind in (Kind.ALU, Kind.ALU_IMM, Kind.MOVE, Kind.LOAD_IMM):
            di.result = alu_result(di.inst, di.rs1_value or 0, di.rs2_value or 0)
            self._schedule_completion(di, di.info.latency)
            return
        if kind == Kind.BRANCH:
            di.actual_taken = branch_taken(di.inst, di.rs1_value, di.rs2_value)
            di.actual_target = di.inst.imm if di.actual_taken else di.pc + 1
            di.mispredicted = di.actual_taken != di.predicted_taken
            self._schedule_completion(di, 1)
            self.pending_control.append(di)
            return
        if kind == Kind.JUMP_REG:
            di.actual_taken = True
            di.actual_target = (di.rs1_value + di.inst.imm) & WORD_MASK
            di.mispredicted = di.actual_target != di.predicted_target
            di.result = (di.pc + 1) & WORD_MASK
            self._schedule_completion(di, 1)
            self.pending_control.append(di)
            return
        if kind == Kind.LOAD:
            di.address = effective_address(di.inst, di.rs1_value)
            di.addr_ready = True
            return
        if kind == Kind.STORE:
            di.address = effective_address(di.inst, di.rs1_value)
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
                load.load_value = self._truncate(forward_store.rs2_value,
                                                 load.info.mem_size)
                load.access_level = "FWD"
                load.mem_issued = True
                self._activity += 1
                self._schedule_load_completion(load, 1)
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
            load.load_value = self._truncate(forward_store.rs2_value,
                                             load.info.mem_size)
        else:
            load.load_value = self.memory.load(load.address,
                                               load.info.mem_size)
        load.access_level = access.level
        load.mem_issued = True
        self._activity += 1
        self._schedule_load_completion(load, access.latency)

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

    def _schedule_load_completion(self, load: DynInst, latency: int) -> None:
        load.ready_cycle = self.cycle + max(1, latency)
        self._completion_buckets.setdefault(load.ready_cycle, []).append(load)
        # Loads complete through the normal writeback path; hook data arrival.
        load.result = load.load_value

    # ------------------------------------------------------------ resolution
    def _resolve_control(self) -> None:
        # Also finalise load data arrival (engine hook) before resolution.
        self._finish_loads()
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

    def _finish_loads(self) -> None:
        if not self.lsq:
            return
        for di in self.lsq:
            if (di.is_load and di.complete and not di.mem_complete
                    and not di.squashed):
                di.mem_complete = True
                self._activity += 1
                self.engine.on_load_data(di)

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
        squashed: list[DynInst] = []
        while len(self.rob) > self.rob_head and self.rob[-1].seq > di.seq:
            victim = self.rob.pop()
            victim.squashed = True
            squashed.append(victim)
        self.n_squashed_insts += len(squashed)
        if squashed:
            dead = {d.seq for d in squashed}
            self.rs = [d for d in self.rs if d.seq not in dead]
            self.lsq = [d for d in self.lsq if d.seq not in dead]
            self._sq_used = sum(1 for d in self.lsq if d.is_store)
            self._lq_used = len(self.lsq) - self._sq_used
            self.pending_control = [d for d in self.pending_control
                                    if d.seq not in dead]
            # The engine sees victims before rename-undo recycles their
            # destination registers (it must drop pending taint broadcasts).
            self.engine.on_squash(squashed)
            if self.squash_sink is not None:
                self.squash_sink.extend(squashed)
            for victim in squashed:    # youngest-first, as popped
                self.rename.undo(victim)
        self.fetch_buffer.clear()
        self.fetch_wait_for = None
        self._vp_scan = min(self._vp_scan, len(self.rob))
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

    # -------------------------------------------------------------- dispatch
    def _dispatch(self) -> None:
        width = self.params.issue_width
        dispatched = 0
        # Record why dispatch stalled (if it did) for the cycle accountant;
        # phys-reg exhaustion is folded into rob-full (both are window-size
        # backpressure in this model).
        self.dispatch_block = -1
        while (self.fetch_buffer and dispatched < width
               and self.fetch_buffer[0][0] <= self.cycle):
            di = self.fetch_buffer[0][1]
            if self.rob_occupancy() >= self.params.rob_entries:
                self.dispatch_block = int(StallCause.ROB_FULL)
                break
            if self.rename.free_count() == 0 and di.inst.dest_reg() is not None:
                self.dispatch_block = int(StallCause.ROB_FULL)
                break
            needs_rs = di.kind not in (Kind.HALT, Kind.NOP, Kind.JUMP)
            if needs_rs and len(self.rs) >= self.params.rs_entries:
                self.dispatch_block = int(StallCause.RS_FULL)
                break
            if di.is_load and self._lsq_count(is_store=False) >= self.params.lq_entries:
                self.dispatch_block = int(StallCause.LSQ_FULL)
                break
            if di.is_store and self._lsq_count(is_store=True) >= self.params.sq_entries:
                self.dispatch_block = int(StallCause.LSQ_FULL)
                break
            self.fetch_buffer.pop(0)
            self._activity += 1
            di.dispatch_cycle = self.cycle
            self.rename.rename(di)
            self.engine.on_rename(di)
            if self.checker is not None:
                self.checker.on_rename(di)
            self.rob.append(di)
            if di.kind in (Kind.HALT, Kind.NOP):
                di.complete = True
            elif di.kind == Kind.JUMP:   # JAL: exact target, completes now
                di.result = (di.pc + 1) & WORD_MASK
                di.actual_taken = True
                di.actual_target = di.inst.imm
                di.resolution_applied = True
                self.rename.write_result(di, di.result)
                di.complete = True
            else:
                self.rs.append(di)
                if di.is_transmitter:
                    self.lsq.append(di)
                    if di.is_store:
                        self._sq_used += 1
                    else:
                        self._lq_used += 1
            dispatched += 1

    def _lsq_count(self, is_store: bool) -> int:
        return self._sq_used if is_store else self._lq_used

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

    # ----------------------------------------------------------------- fetch
    def _fetch(self) -> None:
        if (self.fetch_halted or self.fetch_wait_for is not None
                or self.cycle < self.fetch_resume_cycle):
            self._maybe_release_fetch_wait()
            return
        if len(self.fetch_buffer) >= 4 * self.params.fetch_width:
            return
        for _ in range(self.params.fetch_width):
            inst = self.program.fetch(self.fetch_pc)
            if inst is None:
                self.fetch_halted = True
                self._activity += 1
                return
            di = DynInst(self.seq, self.fetch_pc, inst)
            di.fetch_cycle = self.cycle
            self.seq += 1
            self.n_fetched += 1
            self._activity += 1
            ready = self.cycle + self.params.frontend_delay
            kind = inst.info.kind
            if kind == Kind.HALT:
                self.fetch_buffer.append((ready, di))
                self.fetch_halted = True
                return
            if kind in (Kind.BRANCH, Kind.JUMP, Kind.JUMP_REG):
                # Checkpoint the speculative predictor state (RAS, gshare
                # history) before the prediction mutates it; restored by
                # ``_squash_after`` if this instruction gets squashed.
                self._bp_checkpoints.append(
                    (di.seq, self.predictor.speculative_state()))
                taken, target, snapshot = self.predictor.predict(self.fetch_pc, inst)
                di.predicted_taken = taken
                di.predicted_target = target
                di.history_snapshot = snapshot
                self.fetch_buffer.append((ready, di))
                if target is None:
                    di.prediction_missing = True
                    di.mispredicted = True
                    self.fetch_wait_for = di
                    return
                self.fetch_pc = target
                continue
            self.fetch_buffer.append((ready, di))
            self.fetch_pc += 1

    def _maybe_release_fetch_wait(self) -> None:
        di = self.fetch_wait_for
        if di is None:
            return
        if di.squashed:
            self.fetch_wait_for = None
            self._activity += 1


def build_core(program: Program, engine: Optional[ProtectionEngine] = None,
               params: Optional[MachineParams] = None, **kwargs) -> OoOCore:
    """Construct the core for ``params.backend``: every caller's one way in.

    The fastpath package (and its numpy dependency) is only imported when
    the vector backend is actually requested, so the reference backend
    works on a bare interpreter.  The vector core may wrap ``engine`` in
    its struct-of-arrays twin — callers must use ``core.engine``, not the
    engine they passed in.
    """
    params = params or MachineParams()
    if params.backend == "vector":
        from repro.fastpath.vector_core import VectorCore
        return VectorCore(program, engine=engine, params=params, **kwargs)
    return OoOCore(program, engine=engine, params=params, **kwargs)
