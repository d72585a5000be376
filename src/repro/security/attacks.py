"""Attack gadgets for penetration testing (paper Section 9.1).

The original pen-test pair, matching the paper's matrix:

* :func:`spectre_v1` — the classic bounds-check-bypass universal read gadget
  (Spectre-PHT).  A transient out-of-bounds load reads a secret byte and
  transmits it through a probe-array cache line.  Leaks *speculatively-
  accessed* data: blocked by STT, SPT and SecureBaseline, observable on
  UnsafeBaseline.

* :func:`nonspec_secret` — the attack that motivates SPT (Section 3).  A
  constant-time victim holds a secret in a register *non-speculatively*; a
  mis-trained indirect branch transiently redirects execution into a transmit
  gadget that leaks the register.  Because the secret was non-speculatively
  accessed, STT does **not** protect it — only SPT and SecureBaseline block
  the leak.

Plus one builder per remaining Spectre variant (Kocher et al. taxonomy),
registered and documented in :mod:`repro.security.scenarios`:

* :func:`spectre_btb`  — indirect-target injection via BTB index aliasing
  (variant 2); the attacker plants a wildcard-tag entry with
  ``train_btb(..., alias_ok=True)`` before the run.
* :func:`spectre_rsb`  — return-stack misdirection (variant 5): a callee
  overwrites its return address, so the RAS-predicted return transiently
  executes the instructions after the call site — the transmit gadget.
* :func:`spectre_stl`  — speculative store bypass (variant 4): a load
  issues past an older store whose address is still unresolved and reads
  the stale secret the store was about to overwrite.  Needs
  ``memory_dependence_speculation=True`` (carried in ``overrides``).
* :func:`uninit_transient` — pitchfork's ``SpectreOOBState`` policy made
  concrete: never-written heap bytes read as a keyed hash of
  ``uninit_secret_seed``, and a bounds-bypass gadget transiently reads one.

All builders take the secret (byte or seed) as a parameter so
trace-equivalence tests can diff runs across secrets.

The module also holds the one leak rule every verdict command judges by
(:func:`expected_to_leak`), keyed by a victim's exposure class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.harness.configs import CONFIGURATIONS
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import Program
from repro.memory.main_memory import uninit_byte

PROBE_LINE_BYTES = 64
ATTACK_BASE = 0x400000

# How a victim exposes its secret (paper Section 9.1).
SPECULATIVE = "speculative"         # the secret only exists transiently
NONSPECULATIVE = "nonspeculative"   # loaded and retired before the window
EXPOSURES = (SPECULATIVE, NONSPECULATIVE)


def expected_to_leak(exposure: str, config: str) -> bool:
    """Must a victim of this exposure class leak under ``config``, under
    either attack model?  UnsafeBaseline leaks every secret; every other
    scheme blocks a transient-only one, but STT's scope excludes
    non-speculatively accessed data (paper Section 3)."""
    if exposure not in EXPOSURES:
        raise ValueError(f"unknown exposure class {exposure!r}")
    if config not in CONFIGURATIONS:
        raise ValueError(f"unknown configuration {config!r}")
    return config == "UnsafeBaseline" or (exposure == NONSPECULATIVE
                                          and config == "STT")


@dataclass(frozen=True)
class AttackProgram:
    """A victim program, where its secret byte lives, and how to detect the
    leak in the observer trace.

    ``setup`` (when present) runs against the constructed core before the
    simulation starts — the attacker's out-of-band preparation step, e.g.
    planting an aliased BTB entry.  ``overrides`` are MachineParams field
    overrides the attack depends on (e.g. memory-dependence speculation).
    """

    program: Program
    probe_base: int
    secret: int
    secret_address: int
    setup: Optional[Callable] = None
    overrides: Optional[dict] = None

    def leaked_line(self) -> int:
        """The probe-array cache line that only the secret can select."""
        return self.probe_base + self.secret * PROBE_LINE_BYTES

    def leaked(self, observer) -> bool:
        """Did the run transmit the secret over the cache channel?"""
        return self.leaked_line() in observer.lines_touched()


def slow_copy(b: ProgramBuilder, dst: str, src: str, mults: int = 30) -> None:
    """dst = src via a long multiply chain (delays whatever consumes dst).

    This widens the speculation window exactly the way real attacks do by
    evicting the bound/target from the cache.  Clobbers ``t3``.
    """
    b.mov(dst, src)
    b.li("t3", 1)
    for _ in range(mults):
        b.mul(dst, dst, "t3")


def warm_words(b: ProgramBuilder, base: str, words: int, cursor: str,
               counter: str) -> None:
    """Load every cache line of the ``words``-long array at ``base``.

    The attacker controls its index array and touches it freely (values
    discarded into x0), so a bounds-bypass pass's index load is an L1 hit
    and the delayed bounds check resolves well after the gadget runs.
    """
    b.mov(cursor, base)
    with b.loop(count=(words * 8 + 63) // 64 + 1, counter=counter):
        b.ld("zero", cursor, 0)
        b.addi(cursor, cursor, 64)


def _transmit(b: ProgramBuilder, value_reg: str, probe_reg: str = "s3",
              sink_reg: str = "s9") -> None:
    """Load the probe line selected by ``value_reg`` (the covert send)."""
    b.slli("a2", value_reg, 6)
    b.add("a2", "a2", probe_reg)
    b.lb("a3", "a2", 0)
    b.add(sink_reg, sink_reg, "a3")


def _bounds_bypass(b: ProgramBuilder, passes: int, widen: int,
                   sink_reg: str, displace: int = 0) -> None:
    """Warm the index array at ``s5``, then run a bounds-bypass pass per
    index.

    Each pass loads an index, checks it against the bound in ``s4``
    (delayed by a ``widen``-long multiply chain), reads that byte of the
    array at ``s2`` and transmits it, plus ``displace``, through the probe
    array at ``s3`` into ``sink_reg``.
    """
    warm_words(b, "s5", passes, cursor="t0", counter="t1")
    with b.loop(count=passes, counter="s7"):
        b.ld("a0", "s5", 0)
        b.addi("s5", "s5", 8)
        slow_copy(b, "t2", "s4", widen)    # slow bound (widens the window)
        skip = b.forward_label()
        b.bge("a0", "t2", skip)      # the bounds check
        b.add("t0", "s2", "a0")
        b.lb("a1", "t0", 0)          # the (possibly out-of-bounds) access
        if displace:
            b.addi("a1", "a1", displace)
        _transmit(b, "a1", sink_reg=sink_reg)
        b.place(skip)


def spectre_v1(secret: int = 0xA7, in_bounds: int = 16,
               trainings: int = 3, widen: int = 30) -> AttackProgram:
    """Bounds-check bypass: ``if (i < N) leak(A[i])`` with i = N transient.

    The index sequence holds ``trainings`` passes over in-bounds indices and
    ends with the out-of-bounds index N, whose bounds check mispredicts after
    training.  The bound comparison is delayed by a ``widen``-long multiply
    chain so the transient window is wide enough for both dependent loads.
    """
    if not 0 <= secret <= 0xFF:
        raise ValueError("secret must be a byte")
    b = ProgramBuilder("spectre-v1", data_base=ATTACK_BASE)
    array = b.alloc_bytes("victim_array",
                          [v % 8 for v in range(in_bounds)] + [secret])
    probe = b.reserve("probe", 256 * PROBE_LINE_BYTES, align=PROBE_LINE_BYTES)
    # The out-of-bounds attack access follows the training passes.
    indices = [*range(in_bounds)] * trainings + [in_bounds]
    index_base = b.alloc_words("indices", indices)

    b.li("s2", array)
    b.li("s3", probe)
    b.li("s4", in_bounds)            # the bound
    b.li("s5", index_base)
    b.li("s6", 0)                    # sink
    _bounds_bypass(b, len(indices), widen, sink_reg="s6")
    b.halt()
    return AttackProgram(b.build(), probe, secret, array + in_bounds)


def nonspec_secret(secret: int = 0x5C, trainings: int = 4) -> AttackProgram:
    """Leak a *non-speculative secret* through a mis-trained indirect branch.

    The victim loads a secret byte into a register and computes over it in
    constant time (never passing it to a transmitter or branch).  An indirect
    jump, previously trained to target a transmit gadget, transiently
    executes the gadget with the secret still in the register.  STT does not
    block this (the secret is non-speculatively accessed data); SPT does.
    """
    if not 0 <= secret <= 0xFF:
        raise ValueError("secret must be a byte")
    b = ProgramBuilder("nonspec-secret", data_base=ATTACK_BASE)
    probe = b.reserve("probe", 256 * PROBE_LINE_BYTES, align=PROBE_LINE_BYTES)
    # Per-call-site state: which handler the polymorphic call dispatches to
    # and which byte the victim computes over.  The first ``trainings``
    # entries call the (harmless-looking) gadget with a public zero byte;
    # the final entry carries the real secret and dispatches to `legit`.
    value_bytes = b.alloc_bytes("values", [0] * trainings + [secret])

    gadget = b.forward_label("gadget")
    legit = b.forward_label("legit")
    done = b.forward_label("done")

    b.li("s3", probe)
    b.li("s4", value_bytes)
    b.li("s5", 0)                     # target-table cursor (filled below)
    b.li("s9", 0)                     # sink
    calls = trainings + 1
    with b.loop(count=calls, counter="s7"):
        # The byte the victim holds in a register; during the final call this
        # is the secret, loaded and retired *non-speculatively*.
        b.add("t0", "s4", "s5")
        b.lb("s6", "t0", 0)
        # Constant-time computation over the byte (never leaks it).
        b.xori("s8", "s6", 0x3C)
        b.add("s8", "s8", "s8")
        b.xor("s8", "s8", "s6")
        # Dispatch target: the gadget while training, `legit` on the last
        # call.  A multiply chain delays resolution so the mispredicted
        # transient gadget has a wide window.
        b.add("t1", "s5", "zero")
        is_last = b.forward_label()
        pick_done = b.forward_label()
        b.li("t4", trainings)
        b.beq("s5", "t4", is_last)
        b.li("t1", "gadget")
        b.jal(0, pick_done)
        b.place(is_last)
        b.li("t1", "legit")
        b.place(pick_done)
        slow_copy(b, "t2", "t1")
        b.jalr("ra", "t2", 0)         # the polymorphic call site
        b.addi("s5", "s5", 1)
    b.jal(0, done)

    b.place(gadget)
    _transmit(b, "s6")
    b.jalr(0, "ra", 0)                # return to the call site

    b.place(legit)
    b.addi("s8", "s8", 1)
    b.jalr(0, "ra", 0)

    b.place(done)
    b.halt()
    return AttackProgram(b.build(), probe, secret, value_bytes + trainings)


def spectre_btb(secret: int = 0x6D, widen: int = 64) -> AttackProgram:
    """Spectre variant 2: indirect-target injection via BTB aliasing.

    The victim makes one legitimate indirect call through a register that a
    multiply chain delays.  Before the run (the ``setup`` hook), the
    attacker plants a BTB entry *from an aliased PC* (``callsite + one BTB
    wrap``) with ``alias_ok=True``, so fetch predicts the victim's call
    straight into the transmit gadget.  The secret sits in a register,
    loaded non-speculatively — so STT does not protect it, SPT does.
    """
    if not 0 <= secret <= 0xFF:
        raise ValueError("secret must be a byte")
    b = ProgramBuilder("spectre-btb", data_base=ATTACK_BASE)
    probe = b.reserve("probe", 256 * PROBE_LINE_BYTES, align=PROBE_LINE_BYTES)
    values = b.alloc_bytes("values", [secret])
    gadget = b.forward_label("gadget")
    legit = b.forward_label("legit")
    done = b.forward_label("done")

    b.li("s3", probe)
    b.li("s9", 0)                     # sink
    b.li("t0", values)
    b.lb("zero", "t0", 0)             # warm the secret line (public address)
    b.lb("s6", "t0", 0)               # the non-speculative secret
    b.xori("s8", "s6", 0x3C)          # constant-time computation over it
    b.add("s8", "s8", "s8")
    b.li("t1", "legit")
    slow_copy(b, "t2", "t1", widen)   # delay the call's resolution
    b.label("callsite")
    b.jalr("ra", "t2", 0)             # the victim's only indirect call
    b.jal(0, done)

    b.place(gadget)                   # never architecturally reached
    _transmit(b, "s6")
    b.jalr(0, "ra", 0)

    b.place(legit)
    b.addi("s8", "s8", 1)
    b.jalr(0, "ra", 0)

    b.place(done)
    b.halt()
    program = b.build()

    def setup(core) -> None:
        # Train from the attacker's congruent PC, one BTB wrap away; the
        # wildcard tag is what index aliasing gives a real attacker.
        aliased_pc = program.symbols["callsite"] + core.params.btb_entries
        core.predictor.train_btb(aliased_pc, program.symbols["gadget"],
                                 alias_ok=True)

    return AttackProgram(program, probe, secret, values, setup=setup)


def spectre_rsb(secret: int = 0x3B, widen: int = 64) -> AttackProgram:
    """Spectre variant 5: return-stack (RAS) misdirection.

    ``main`` calls ``outer``, which calls ``f``; ``f`` overwrites its return
    address (retpoline-style mismatch) so its return *architecturally* goes
    to ``skip`` — but the RAS predicts the instruction after the call site,
    where the transmit gadget sits.  The wrong path then executes a return
    of its own, consuming ``outer``'s live RAS entry: exactly the
    under/overflow corruption the predictor-state checkpoint fix repairs.
    The secret is non-speculative (register), so STT leaks and SPT blocks.
    """
    if not 0 <= secret <= 0xFF:
        raise ValueError("secret must be a byte")
    b = ProgramBuilder("spectre-rsb", data_base=ATTACK_BASE)
    probe = b.reserve("probe", 256 * PROBE_LINE_BYTES, align=PROBE_LINE_BYTES)
    values = b.alloc_bytes("values", [secret])
    outer = b.forward_label("outer")
    f = b.forward_label("f")
    skip = b.forward_label("skip")
    done = b.forward_label("done")

    b.li("s3", probe)
    b.li("s9", 0)
    b.li("t0", values)
    b.lb("zero", "t0", 0)             # warm the secret line
    b.lb("s6", "t0", 0)               # the non-speculative secret
    b.xori("s8", "s6", 0x11)          # constant-time use
    b.jal("ra", outer)                # RAS: [main_ret]
    b.jal(0, done)                    # main_ret

    b.place(outer)
    b.mov("s10", "ra")                # save the real return address
    b.jal("ra", f)                    # RAS: [main_ret, outer_ret]
    # outer_ret: the RAS-predicted (transient) return target of ``f``.
    _transmit(b, "s6")                # the gadget — architecturally skipped
    b.jalr(0, "ra", 0)                # wrong-path return: pops main_ret!
    b.place(skip)
    b.addi("s8", "s8", 2)
    b.mov("ra", "s10")
    b.jalr(0, "ra", 0)                # outer's real return -> main_ret

    b.place(f)
    b.li("ra", "skip")                # overwrite the return address...
    slow_copy(b, "ra", "ra", widen)   # ...and delay its availability
    b.jalr(0, "ra", 0)                # return: RAS says outer_ret (gadget)

    b.place(done)
    b.halt()
    return AttackProgram(b.build(), probe, secret, values)


def spectre_stl(secret: int = 0x51, widen: int = 24) -> AttackProgram:
    """Spectre variant 4: speculative store bypass (store-to-load).

    Memory at ``slot`` initially holds the stale secret.  The victim stores
    a public value over it, but the store's *address* arrives late (multiply
    chain); with memory-dependence speculation enabled, the younger load
    issues past the unresolved store, reads the stale secret, and the
    dependent transmit fires before the violation squash.  Architecturally
    the load forwards the public value, so every run retires identically.
    ``overrides`` carries ``memory_dependence_speculation=True`` — engines
    that protect speculative data disable MDS, so only UnsafeBaseline leaks.
    """
    if not 0 <= secret <= 0xFF:
        raise ValueError("secret must be a byte")
    public = (secret + 1) & 0xFF      # never selects the secret's probe line
    b = ProgramBuilder("spectre-stl", data_base=ATTACK_BASE)
    probe = b.reserve("probe", 256 * PROBE_LINE_BYTES, align=PROBE_LINE_BYTES)
    slot = b.alloc_bytes("slot", [secret])

    b.li("s3", probe)
    b.li("s9", 0)
    b.li("t0", slot)
    b.lb("zero", "t0", 0)             # warm the slot line (public address)
    b.li("t5", public)
    slow_copy(b, "t1", "t0", widen)   # the store address arrives late
    b.sb("t5", "t1", 0)               # store public over the stale secret
    b.lb("a1", "t0", 0)               # the bypassing load (address ready now)
    _transmit(b, "a1")
    b.halt()
    return AttackProgram(b.build(), probe, secret, slot,
                         overrides={"memory_dependence_speculation": True})


def uninit_transient(seed: int = 0x5EED, in_bounds: int = 8,
                     trainings: int = 3, widen: int = 30) -> AttackProgram:
    """Uninitialised-memory-is-secret: a bounds bypass into unwritten heap.

    Under ``uninit_secret_seed=seed`` every never-written byte reads as
    ``uninit_byte(seed, address)``.  The victim array holds only zeros; the
    out-of-bounds index reaches a *reserved but never initialised* heap
    region, so the transient load observes pure uninitialised state — the
    policy pitchfork's ``SpectreOOBState`` treats as secret.  Transmitted
    values are displaced by +1 so the training passes (value 0 -> line 1)
    can never collide with the leaked line.

    The heap line is cache-resident when the attack iteration runs — a
    recently-freed allocation, warmed by a discarding touch (``lb zero``)
    whose line address is seed-independent — so the transient read is an L1
    hit and fits the same speculation window as :func:`spectre_v1`.  The
    uninit byte itself is read only transiently, so every protection scheme
    blocks the leak (STT included: the exposure is speculative).
    """
    b = ProgramBuilder("uninit-transient", data_base=ATTACK_BASE)
    array = b.alloc_bytes("victim_array", [0] * in_bounds)
    heap = b.reserve("uninit_heap", PROBE_LINE_BYTES,
                     align=PROBE_LINE_BYTES)
    probe = b.reserve("probe", 257 * PROBE_LINE_BYTES,
                      align=PROBE_LINE_BYTES)
    leaked = uninit_byte(seed, heap)
    if leaked == 0:
        raise ValueError(f"seed {seed:#x} hashes to byte 0 at the heap "
                         f"address; pick another seed")
    # The out-of-bounds attack access follows the training passes.
    indices = [*range(in_bounds)] * trainings + [heap - array]
    index_base = b.alloc_words("indices", indices)

    b.li("s2", array)
    b.li("s3", probe)
    b.li("s4", in_bounds)
    b.li("s5", index_base)
    b.li("s9", 0)
    b.li("t0", heap)                  # the freed allocation: touch its line
    b.lb("zero", "t0", 0)             # (value discarded; address is public)
    # In training the access reads 0; transiently, the uninit byte.  The +1
    # displacement keeps training values off the leaked line.
    _bounds_bypass(b, len(indices), widen, sink_reg="s9", displace=1)
    b.halt()
    return AttackProgram(b.build(), probe, leaked + 1, heap,
                         overrides={"uninit_secret_seed": seed})
