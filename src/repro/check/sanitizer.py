"""The lockstep sanitizer: golden-interpreter lockstep + cycle-level scans.

A :class:`Sanitizer` attaches to one :class:`~repro.pipeline.core.OoOCore`
(constructed automatically when ``MachineParams.check_level`` is not
``"off"``) and observes the pipeline through a handful of hooks the core
calls behind ``is not None`` guards — the off-mode cost is a single
attribute test per event.  The sanitizer is strictly passive: it never
mutates core, engine, or memory state, so a checked run retires the exact
cycle-for-cycle schedule of an unchecked one.

Checking is layered for independence from the code it checks:

* retire-time lockstep replays every retired instruction on the golden
  :mod:`repro.isa.interpreter` state machine and compares PCs, register
  results, and store address/value pairs — the semantics come from
  ``repro.isa.semantics`` applied to an architectural state the pipeline
  never touches;
* taint checks recompute the Section 6.3/6.5 rules from
  :mod:`repro.core.taint_algebra` and diff the engine's taint vector
  against the previous cycle, so an engine that silently drops or leaks
  taint disagrees with the recomputation;
* visibility-point checks re-derive the frontier from the attack model's
  obstacle predicate (:attr:`ProtectionEngine.vp_predicate`) rather than
  trusting ``advance_vp``.

Every violated property raises :class:`InvariantViolation`; every passed
evaluation bumps a per-invariant counter exported into the run metrics
under the ``check`` group.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.check.invariants import CHECK_LEVELS
from repro.check.violation import InvariantViolation
from repro.core.baselines import SecureBaseline
from repro.core.spt import ReferenceSPTEngine
from repro.core.stt import STTEngine
from repro.core.shadow_l1 import ShadowMode
from repro.core.taint_algebra import initial_output_taint
from repro.isa.interpreter import ArchState, step
from repro.isa.opcodes import WORD_MASK, Kind
from repro.isa.semantics import effective_address
from repro.memory.main_memory import uninit_byte
from repro.obs.metrics import Metrics

if TYPE_CHECKING:
    from repro.pipeline.core import OoOCore
    from repro.pipeline.dyninst import DynInst

# How many recent pipeline events ride along in a violation report.
TRACE_WINDOW = 24

# Kinds that complete at dispatch and never take a reservation-station
# entry; every other in-flight instruction holds one until it issues.
_NO_RS_KINDS = (Kind.HALT, Kind.NOP, Kind.JUMP)


def _rs_mismatch(core: "OoOCore", waiting: int) -> str:
    return (f"the RS holds {core._rs_count} entries but {waiting} "
            f"un-issued instructions in the window need one")


class _UninitGolden(ArchState):
    """Golden state under ``MachineParams.uninit_secret_seed``: bytes
    never written read as :func:`uninit_byte`, as the core's memory reads
    them, instead of zero."""

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed

    def load(self, address: int, size: int) -> int:
        value = 0
        for offset in range(size):
            addr = (address + offset) & WORD_MASK
            byte = self.memory.get(addr)
            if byte is None:
                byte = uninit_byte(self.seed, addr)
            value |= byte << (8 * offset)
        return value


class Sanitizer:
    """Passive lockstep checker for one simulation run.

    The core owns its sanitizer (``core.checker``); the sanitizer holds the
    core only weakly, like the engine does, so neither back-reference keeps
    a finished simulation alive.
    """

    def __init__(self, core: "OoOCore", level: str):
        if level not in CHECK_LEVELS or level == "off":
            raise ValueError(f"invalid check level {level!r}; "
                             f"expected one of {CHECK_LEVELS[1:]}")
        self._core_ref = weakref.ref(core)
        self.level = level
        self.full = level == "full"
        self.counts: dict[str, int] = {}

        # Golden lockstep state: an independent architectural machine.
        seed = core.params.uninit_secret_seed
        self.golden = ArchState() if seed is None else _UninitGolden(seed)
        self.golden.memory.update(core.program.initial_memory.items())
        self.expected_pc: Optional[int] = 0
        self._last_retired_seq = -1

        # Context for violation reports.
        self.window: deque = deque(maxlen=TRACE_WINDOW)

        engine = core.engine
        self._spt = engine if isinstance(engine, ReferenceSPTEngine) else None
        self._stt = engine if isinstance(engine, STTEngine) else None
        self._secure = isinstance(engine, SecureBaseline)
        self._vp_predicate = getattr(engine, "vp_predicate", None)
        # Independent youngest-root-of-taint map for STT (Section 2.2):
        # maintained from rename events only, never read from the engine, so
        # an engine that corrupts its own root map still gets caught at the
        # transmit/resolve gates.
        self._yrot: dict = {}

        # Previous-cycle taint snapshot for the monotonicity diff.
        self._prev_taint: Optional[list] = None
        self._prev_untaint_total = 0
        if self._spt is not None:
            self._prev_taint = list(self._spt.taint)
            self._prev_untaint_total = self._spt.untaint.total

    # -------------------------------------------------------------- plumbing
    @property
    def core(self) -> Optional["OoOCore"]:
        """The checked core, or None once it has been freed."""
        return self._core_ref()

    def _pass(self, invariant: str) -> None:
        self.counts[invariant] = self.counts.get(invariant, 0) + 1

    def _fail(self, invariant: str, message: str,
              di: Optional["DynInst"] = None) -> None:
        raise InvariantViolation(
            invariant, self.core.cycle, message,
            inst=repr(di) if di is not None else None,
            window=list(self.window))

    def _check(self, invariant: str, ok: bool, message: str,
               di: Optional["DynInst"] = None) -> None:
        if not ok:
            self._fail(invariant, message, di)
        self._pass(invariant)

    def metrics_tree(self) -> Metrics:
        """Per-invariant evaluation counts (grafted under ``check``)."""
        m = Metrics("check")
        m.set("level", 1 if self.level == "commit" else 2)
        passed = m.child("passed")
        for invariant, count in sorted(self.counts.items()):
            passed.set(invariant, count)
        m.set("total", sum(self.counts.values()))
        return m

    # --------------------------------------------------------- engine gates
    # Independent recomputations of the engines' gating predicates from
    # their taint state (not their gating methods), so a bug in — or a
    # mutation of — may_compute_address / may_resolve is visible.
    def _transmit_legal(self, di: "DynInst") -> bool:
        if di.reached_vp:
            return True
        if self._spt is not None:
            return not di.t_src1
        if self._stt is not None:
            return not self._stt_tainted(di.prs1)
        if self._secure:
            return False
        return True

    def _resolve_legal(self, di: "DynInst") -> bool:
        if di.reached_vp:
            return True
        if self._spt is not None:
            return not di.t_src1 and not (di.info.reads_rs2 and di.t_src2)
        if self._stt is not None:
            return not (self._stt_tainted(di.prs1)
                        or (di.info.reads_rs2
                            and self._stt_tainted(di.prs2)))
        if self._secure:
            return False
        return True

    def _stt_live_root(self, preg: int) -> Optional["DynInst"]:
        root = self._yrot.get(preg)
        if root is None or root.reached_vp or root.squashed or root.retired:
            return None
        return root

    def _stt_tainted(self, preg: int) -> bool:
        return preg >= 0 and self._stt_live_root(preg) is not None

    # ------------------------------------------------------------ event hooks
    def on_rename(self, di: "DynInst") -> None:
        """Dispatch renamed ``di`` (taint initialisation just happened)."""
        if not self.full:
            return
        if self._stt is not None:
            # Mirror the YRoT propagation rule into the private map.
            if di.is_load:
                if di.prd >= 0:
                    self._yrot[di.prd] = di
            else:
                root = None
                for preg in (di.prs1, di.prs2):
                    candidate = self._stt_live_root(preg) \
                        if preg >= 0 else None
                    if candidate is not None and (
                            root is None or candidate.seq > root.seq):
                        root = candidate
                if di.prd >= 0:
                    if root is None:
                        self._yrot.pop(di.prd, None)
                    else:
                        self._yrot[di.prd] = root
            return
        if self._spt is None:
            return
        taint = self._spt.taint
        want_src1 = di.prs1 >= 0 and taint[di.prs1]
        want_src2 = di.prs2 >= 0 and taint[di.prs2]
        want_dst = initial_output_taint(di.inst, want_src1, want_src2)
        self._check(
            "taint-init",
            di.t_src1 == want_src1 and di.t_src2 == want_src2
            and di.t_dst == want_dst
            and (di.prd < 0 or taint[di.prd] == want_dst),
            f"rename taint mismatch: entry bits "
            f"(src1={di.t_src1}, src2={di.t_src2}, dst={di.t_dst}) vs "
            f"algebra (src1={want_src1}, src2={want_src2}, dst={want_dst})",
            di)

    def on_transmit(self, di: "DynInst") -> None:
        """A transmitter began executing (address computation)."""
        if not self.full:
            return
        self._check(
            "gated-transmitter", self._transmit_legal(di),
            "transmitter computed its address while gated "
            f"(reached_vp={di.reached_vp}, t_src1={di.t_src1})", di)

    def on_cache_access(self, load: "DynInst") -> None:
        """A load is about to access the cache hierarchy."""
        if not self.full:
            return
        self._check(
            "gated-transmitter", self._transmit_legal(load),
            "load touched the cache hierarchy while gated "
            f"(reached_vp={load.reached_vp}, t_src1={load.t_src1})", load)

    def on_forward_skip(self, load: "DynInst", store: "DynInst") -> None:
        """A forwarded load is skipping its cache access."""
        if not self.full:
            return
        if self._spt is not None:
            ok = self._stl_public_recompute(load, store)
            detail = (f"STLPublic does not hold (load.t_src1={load.t_src1}, "
                      f"store.t_src1={store.t_src1})")
        elif self._stt is not None:
            ok = load.reached_vp and store.reached_vp
            detail = (f"ends not both at VP (load={load.reached_vp}, "
                      f"store={store.reached_vp})")
        elif self._secure:
            # SecureBaseline loads only issue at the VP, where the
            # forwarding decision is architecturally determined.
            ok = load.reached_vp
            detail = f"load not at VP (reached_vp={load.reached_vp})"
        else:
            ok, detail = True, ""
        self._check(
            "stl-visibility", ok,
            f"forwarded load skipped its cache access but the forwarding "
            f"decision is not public: {detail}", load)

    def _stl_public_recompute(self, load: "DynInst",
                              store: "DynInst") -> bool:
        """Re-derive STLPublic(S, L) from the LSQ (paper Section 6.7)."""
        if load.t_src1 or store.t_src1:
            return False
        for st in self.core.lsq:
            if st.seq >= load.seq:
                break
            if (st.is_store and not st.squashed and st.seq >= store.seq
                    and st.t_src1):
                return False
        return True

    def on_resolve(self, di: "DynInst") -> None:
        """A control instruction is applying its resolution effects."""
        if not self.full:
            return
        self._check(
            "gated-resolution", self._resolve_legal(di),
            "control resolution applied while the predicate is protected "
            f"(reached_vp={di.reached_vp}, t_src1={di.t_src1}, "
            f"t_src2={di.t_src2})", di)

    # ----------------------------------------------------------- commit hooks
    def on_retire(self, di: "DynInst") -> None:
        """Called at the head of ``_retire`` — lockstep with the golden ISA."""
        core = self.core
        self._check(
            "retire-order",
            not di.squashed and di is core.head_inst()
            and di.seq > self._last_retired_seq,
            f"retired out of order (squashed={di.squashed}, "
            f"head={core.head_inst()!r}, last_seq={self._last_retired_seq})",
            di)
        self._last_retired_seq = di.seq

        if self.expected_pc is None:
            self._fail("pc-sequence",
                       "instruction retired after the golden HALT", di)
        self._check(
            "pc-sequence", di.pc == self.expected_pc,
            f"retired pc {di.pc} but the golden path expects "
            f"{self.expected_pc}", di)

        inst = di.inst
        golden = self.golden
        if di.is_store:
            addr = effective_address(inst, golden.read_reg(inst.rs1))
            value = golden.read_reg(inst.rs2)
            mask = (1 << (8 * di.info.mem_size)) - 1
            self._check(
                "mem-equality",
                di.address == addr
                and ((di.rs2_value or 0) ^ value) & mask == 0,
                f"store writes {di.rs2_value!r} @ {di.address!r}; golden "
                f"writes {value:#x} @ {addr:#x}", di)
        elif di.is_load:
            addr = effective_address(inst, golden.read_reg(inst.rs1))
            value = golden.load(addr, di.info.mem_size)
            invariant = ("lsq-forwarding" if di.forwarded_from is not None
                         else "mem-equality")
            self._check(
                invariant,
                di.address == addr and di.result == value,
                f"load returned {di.result!r} @ {di.address!r}; golden "
                f"reads {value:#x} @ {addr:#x}"
                + (" (store-to-load forwarded)"
                   if di.forwarded_from is not None else ""), di)

        next_pc = step(golden, inst, di.pc)
        if inst.dest_reg() is not None:
            want = golden.read_reg(inst.rd)
            got = None if di.result is None else di.result & WORD_MASK
            self._check(
                "reg-equality", got == want,
                f"x{inst.rd} result {got!r}; golden computes {want:#x}", di)
        self.expected_pc = next_pc
        self.window.append(
            f"cycle {self.core.cycle}: retire #{di.seq} pc={di.pc} {inst}")

    def on_squash(self, anchor, squashed: list) -> None:
        """Called at the end of ``_squash_after``; ``anchor`` survives."""
        core = self.core
        boundary = anchor.seq
        for victim in squashed:
            if not victim.squashed:
                self._fail("squash-complete",
                           f"victim #{victim.seq} not marked squashed",
                           victim)
        rob_tail = core.rob[-1] if len(core.rob) > core.rob_head else None
        ok = (rob_tail is None or rob_tail.seq <= boundary) \
            and not core.fetch_buffer
        detail = ""
        if ok:
            for name, structure in (("LSQ", core.lsq),
                                    ("pending-control",
                                     core.pending_control)):
                for di in structure:
                    if di.seq > boundary or di.squashed:
                        ok, detail = False, (
                            f"#{di.seq} (squashed={di.squashed}) survived "
                            f"in the {name}")
                        break
                if not ok:
                    break
        if ok:
            waiting = sum(1 for di in core.in_flight()
                          if not di.issued and di.kind not in _NO_RS_KINDS)
            if core._rs_count != waiting:
                ok, detail = False, _rs_mismatch(core, waiting)
        self._check(
            "squash-complete", ok,
            f"squash younger than #{boundary} incomplete: "
            + (detail or f"ROB tail {rob_tail!r}, "
               f"fetch_buffer={len(core.fetch_buffer)}"))
        self.window.append(
            f"cycle {core.cycle}: squash younger than #{boundary} "
            f"({len(squashed)} victims)")

    def on_finish(self) -> None:
        """HALT retired: full architectural-state comparison."""
        core = self.core
        golden_halted = self.expected_pc is None
        ok = golden_halted
        detail = "sim halted but the golden path has not"
        if ok:
            for index in range(32):
                sim_value = core.rename.arch_value(index)
                golden_value = self.golden.read_reg(index)
                if sim_value != golden_value:
                    ok = False
                    detail = (f"x{index}: sim={sim_value:#x} "
                              f"golden={golden_value:#x}")
                    break
        if ok:
            golden_mem = {a: v for a, v in self.golden.memory.items() if v}
            if core.memory.snapshot() != golden_mem:
                ok, detail = False, "memory image diverged from golden"
        self._check("final-state", ok,
                    f"architectural state mismatch at HALT: {detail}")

    # ------------------------------------------------------------ cycle scan
    def on_cycle(self) -> None:
        """End-of-cycle window scans (``check_level="full"`` only)."""
        if not self.full:
            return
        core = self.core
        self._scan_window(core)
        if self._vp_predicate is not None:
            self._scan_vp(core)
        if self._spt is not None:
            self._scan_taint(core)
        self._check(
            "stall-identity", sum(core.stall_counts) == core.cycle,
            f"stall buckets sum to {sum(core.stall_counts)} at cycle "
            f"{core.cycle}")

    def _scan_window(self, core: "OoOCore") -> None:
        prev_seq = -1
        live = set()
        waiting = 0
        for di in core.in_flight():
            if di.squashed or di.seq <= prev_seq:
                self._fail(
                    "rob-age-order",
                    f"ROB out of age order (squashed={di.squashed}, "
                    f"prev_seq={prev_seq})", di)
            prev_seq = di.seq
            live.add(di.seq)
            if not di.issued and di.kind not in _NO_RS_KINDS:
                waiting += 1
        self._pass("rob-age-order")
        for name, structure in (("LSQ", core.lsq),
                                ("pending-control", core.pending_control)):
            for di in structure:
                if di.squashed or di.seq not in live:
                    self._fail(
                        "squash-complete",
                        f"dead instruction resident in the {name} "
                        f"(squashed={di.squashed}, in_rob={di.seq in live})",
                        di)
        if core._rs_count != waiting:
            self._fail("squash-complete", _rs_mismatch(core, waiting))
        self._pass("squash-complete")

    def _scan_vp(self, core: "OoOCore") -> None:
        obstacle = self._vp_predicate
        blocked = False
        declassify_checked = False
        for di in core.in_flight():
            expected = not blocked
            if not blocked and obstacle(di):
                blocked = True      # the first obstacle itself reaches VP
            if di.reached_vp != expected:
                self._fail(
                    "vp-frontier",
                    f"reached_vp={di.reached_vp} but the frontier "
                    f"recomputation says {expected}", di)
            if di.declassified and not di.reached_vp:
                self._fail(
                    "vp-declassify",
                    "declassified while still transient (pre-VP)", di)
            declassify_checked = True
        self._pass("vp-frontier")
        if declassify_checked:
            self._pass("vp-declassify")

    def _scan_taint(self, core: "OoOCore") -> None:
        engine = self._spt
        taint = engine.taint
        self._check("zero-reg", not taint[0],
                    "the zero register's physical register became tainted")

        for di in core.in_flight():
            if (di.t_src1 and di.prs1 >= 0 and not taint[di.prs1]) \
                    or (di.t_src2 and di.prs2 >= 0 and not taint[di.prs2]) \
                    or (di.t_dst and di.prd >= 0 and not taint[di.prd]):
                self._fail(
                    "taint-entry-bits",
                    "entry taint bit set over an untainted physical "
                    f"register (src1={di.t_src1}/{di.prs1}, "
                    f"src2={di.t_src2}/{di.prs2}, "
                    f"dst={di.t_dst}/{di.prd})", di)
        self._pass("taint-entry-bits")

        prev = self._prev_taint
        cycle = core.cycle
        renamed = {di.prd for di in core.in_flight()
                   if di.prd >= 0 and di.dispatch_cycle == cycle}
        newly_tainted = []
        newly_untainted = []
        for preg, was in enumerate(prev):
            now = taint[preg]
            if was and not now:
                newly_untainted.append(preg)
            elif now and not was:
                newly_tainted.append(preg)
        bad_taints = [p for p in newly_tainted if p not in renamed]
        if bad_taints:
            self._fail(
                "taint-monotonic",
                f"registers {bad_taints} became tainted outside rename")
        broadcasts = engine.untaint.total - self._prev_untaint_total
        unaccounted = [p for p in newly_untainted if p not in renamed]
        self._check(
            "taint-monotonic", len(unaccounted) <= broadcasts,
            f"{len(unaccounted)} registers untainted this cycle "
            f"({unaccounted[:8]}...) but only {broadcasts} untaint "
            f"broadcasts were accounted")
        if not engine.ideal:
            self._check(
                "broadcast-width",
                len(unaccounted) <= core.params.untaint_broadcast_width,
                f"{len(unaccounted)} registers untainted in one cycle; "
                f"broadcast width is "
                f"{core.params.untaint_broadcast_width}")
        self._prev_taint = list(taint)
        self._prev_untaint_total = engine.untaint.total

        shadow = engine.shadow
        if shadow is not None and shadow.mode == ShadowMode.L1:
            l1 = core.hierarchy.l1
            for line in shadow.lines():
                if not l1.probe(line):
                    self._fail(
                        "shadow-residency",
                        f"shadow L1 tracks line {line:#x} which is not "
                        f"resident in the L1D (missed eviction?)")
            self._pass("shadow-residency")
