"""Secret-aware random victim generator.

Extends :mod:`repro.workloads.random_programs` with a *secret region*: each
generated program owns a designated block of memory whose contents derive
from a secret value, and embeds randomized leak gadgets that parameterise
transient control flow, load addresses, and loop trip counts on
secret-derived bytes.  The cardinal invariant is that the *architectural*
execution (the committed instruction path) is secret-independent by
construction — secrets influence behaviour only through transient execution
or through registers that are never branched on, stored, or checksummed —
so any attacker-visible divergence between two secrets is a
microarchitectural leak, attributable to the protection configuration
under test.

Generation is two-phase.  :func:`generate_plan` derives a declarative
**plan** (a block list: filler / loops / branches / gadgets) from the seed
alone; :func:`render` lowers a plan plus a concrete secret to a
:class:`~repro.isa.instructions.Program`.  The split is what makes
counterexamples actionable: the delta-debugging minimiser edits plans, not
instruction streams, and the corpus stores plans as JSON.

Gadget taxonomy (exposure x transmitter):

========================  ====================================================
``speculative``           the secret is reachable only transiently, via a
                          Spectre-v1-style bounds-check bypass whose
                          out-of-bounds index lands in the secret region
``nonspeculative``        the secret is loaded architecturally into a
                          register (constant-time use only); a mis-trained
                          indirect call transiently runs a transmitter with
                          the register live — the protection-scope gap that
                          motivates SPT (STT does not block this)
------------------------  ----------------------------------------------------
``line``                  transmit through a secret-indexed probe-array load
``branch``                transient branch on a secret bit (predictor and
                          probe-line channels)
``loop``                  transient loop with a secret-derived trip count,
                          touching one probe line per iteration
========================  ====================================================

Register discipline (the invariant's mechanical form):

* ``s0``/``s1``/``s2`` hold the heap / probe / secret-region bases;
* filler touches only ``s4 s5 s10 s11 a6 a7`` (plus ``t5``/``t6`` scratch),
  mirroring ``random_programs``;
* gadgets use ``t0-t4 a0-a5 s3 s9 ra`` freely;
* ``s6 s7 s8`` may carry secret-derived values and are never read by
  filler, the checksum, or any architectural branch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Optional, Union

from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import Program
from repro.security.attacks import (EXPOSURES, NONSPECULATIVE,
                                    PROBE_LINE_BYTES, SPECULATIVE, slow_copy,
                                    warm_words)
from repro.workloads.random_programs import (_ALU_RI, _ALU_RR,
                                             _CHECKSUM_OFFSET, _HEAP_WORDS,
                                             _MEM_MASK)
from repro.workloads.registry import Workload

FUZZ_BASE = 0x100000            # data segment base for fuzz victims
SECRET_BYTES = 64               # size of the secret region
PROBE_LINES = 256

TRANSMITS = ("line", "branch", "loop")

# Filler operates on these registers only; gadget/secret registers are
# disjoint (see the module docstring for the full register plan).
_FILLER_REGS = ("s4", "s5", "s10", "s11", "a6", "a7")

# Filler shape, the same in every profile: the share of memory
# instructions, and of loop and branch blocks among the non-gadget slots.
_MEM_PROBABILITY = 0.3
_LOOP_PROBABILITY = 0.2
_BRANCH_PROBABILITY = 0.25


# --------------------------------------------------------------------- plan
@dataclass(frozen=True)
class Filler:
    """Straight-line public computation (ALU + bounded heap accesses)."""

    instrs: tuple


@dataclass(frozen=True)
class Loop:
    """A counted loop over public filler instructions."""

    count: int
    instrs: tuple


@dataclass(frozen=True)
class Branch:
    """A data-dependent (public) forward branch with two filler arms."""

    op: str
    rs1: str
    rs2: str
    then_instrs: tuple
    else_instrs: tuple


@dataclass(frozen=True)
class Gadget:
    """One leak attempt: how the secret is exposed and transmitted."""

    exposure: str       # attacks.SPECULATIVE | attacks.NONSPECULATIVE
    transmit: str       # "line" | "branch" | "loop"
    trainings: int      # mis-training iterations before the attack pass
    widen: int          # multiply-chain length delaying resolution
    in_bounds: int      # victim-array length (bounds-bypass only)
    secret_index: int   # which secret-region byte the gadget reaches
    shift: int          # probe-line stride shift (6 => 64-byte lines)


Block = Union[Filler, Loop, Branch, Gadget]


@dataclass(frozen=True)
class FuzzPlan:
    """A complete victim: an ordered block list derived from one seed."""

    seed: int
    profile: str
    blocks: tuple

    @property
    def exposure(self) -> str:
        """The strongest exposure class present (drives expectations)."""
        for block in self.blocks:
            if isinstance(block, Gadget) and block.exposure == NONSPECULATIVE:
                return NONSPECULATIVE
        return SPECULATIVE

    @property
    def gadgets(self) -> list:
        return [b for b in self.blocks if isinstance(b, Gadget)]


@dataclass(frozen=True)
class FuzzProfile:
    """Tuning knobs for a campaign's generator."""

    blocks: int = 8
    max_gadgets: int = 2
    max_loop_count: int = 5
    trainings: tuple = (2, 3, 4)
    widen: tuple = (8, 12, 18, 24)
    in_bounds: tuple = (4, 6, 8)
    exposures: tuple = EXPOSURES
    transmits: tuple = TRANSMITS


PROFILES: dict[str, FuzzProfile] = {
    "default": FuzzProfile(),
    # Small programs for smoke tests and CI: one gadget, little filler.
    "quick": FuzzProfile(blocks=4, max_gadgets=1, trainings=(2, 3),
                         widen=(8, 12), in_bounds=(4, 6)),
    # Larger victims with more interleaved structure.
    "deep": FuzzProfile(blocks=14, max_gadgets=3, max_loop_count=8,
                        trainings=(2, 3, 4, 6), widen=(8, 16, 24, 32)),
    # Hardened victims for the adversarial campaign: bounds-bypass gadgets
    # whose speculation windows are almost all too narrow to leak as
    # generated.  Set to widen=3, 143 of the first 200 plans leak; at
    # widen=2, 1 does (uniform search drew 2 leaks in 3,818 plans over the
    # 10 demo seeds).  So uniform search seldom draws its way to a leak,
    # while the hill climber can *widen* a window via mutations beyond the
    # envelope, guided by the taint-reach score.
    "hard": FuzzProfile(blocks=5, max_gadgets=1,
                        trainings=(0, 1, 2),
                        widen=(0, 0, 1, 1, 2, 2),
                        in_bounds=(4, 6, 8),
                        exposures=(SPECULATIVE,),
                        transmits=("line",)),
}


def secret_pair(seed: int) -> tuple:
    """The two secrets a campaign contrasts for ``seed`` (deterministic)."""
    rng = random.Random(f"fuzz-secrets:{seed}")
    a = rng.getrandbits(64)
    b = rng.getrandbits(64)
    while b == a:
        b = rng.getrandbits(64)
    return a, b


def secret_region(secret: int) -> list:
    """The secret-region byte image derived from a secret value."""
    rng = random.Random(f"fuzz-region:{secret}")
    return [rng.getrandbits(8) for _ in range(SECRET_BYTES)]


# --------------------------------------------------------------- generation
def generate_plan(seed: int, profile: str = "default") -> FuzzPlan:
    """Derive the deterministic victim plan for ``seed``."""
    cfg = PROFILES[profile]
    rng = random.Random(f"fuzz-plan:{profile}:{seed}")
    gadget_count = rng.randint(1, cfg.max_gadgets)
    slots = max(cfg.blocks, gadget_count)
    gadget_slots = set(rng.sample(range(slots), gadget_count))
    blocks: list = []
    for slot in range(slots):
        if slot in gadget_slots:
            blocks.append(_gen_gadget(rng, cfg))
            continue
        roll = rng.random()
        if roll < _LOOP_PROBABILITY:
            blocks.append(Loop(rng.randint(1, cfg.max_loop_count),
                               _gen_instrs(rng, rng.randint(1, 3))))
        elif roll < _LOOP_PROBABILITY + _BRANCH_PROBABILITY:
            blocks.append(Branch(
                rng.choice(["BEQ", "BNE", "BLT", "BGE", "BLTU", "BGEU"]),
                rng.choice(_FILLER_REGS), rng.choice(_FILLER_REGS),
                _gen_instrs(rng, rng.randint(1, 3)),
                _gen_instrs(rng, rng.randint(1, 3))))
        else:
            blocks.append(Filler(_gen_instrs(rng, rng.randint(2, 6))))
    return FuzzPlan(seed, profile, tuple(blocks))


def _gen_gadget(rng: random.Random, cfg: FuzzProfile) -> Gadget:
    return Gadget(
        exposure=rng.choice(cfg.exposures),
        transmit=rng.choice(cfg.transmits),
        trainings=rng.choice(cfg.trainings),
        widen=rng.choice(cfg.widen),
        in_bounds=rng.choice(cfg.in_bounds),
        secret_index=rng.randrange(SECRET_BYTES),
        shift=6)


def _gen_instrs(rng: random.Random, n: int) -> tuple:
    instrs = []
    for _ in range(n):
        if rng.random() < _MEM_PROBABILITY:
            op = rng.choice(["LD", "SD", "LW", "SW", "LB", "SB"])
            instrs.append(("MEM", op, rng.choice(_FILLER_REGS),
                           rng.choice(_FILLER_REGS),
                           rng.choice([0, 8, 16])))
        elif rng.random() < 0.6:
            instrs.append(("ALU", rng.choice(_ALU_RR),
                           rng.choice(_FILLER_REGS),
                           rng.choice(_FILLER_REGS),
                           rng.choice(_FILLER_REGS)))
        else:
            op = rng.choice(_ALU_RI)
            imm = rng.randint(0, 63) if op in ("SLLI", "SRLI", "ROTLI",
                                               "ROTRI") \
                else rng.getrandbits(10)
            instrs.append(("ALUI", op, rng.choice(_FILLER_REGS),
                           rng.choice(_FILLER_REGS), imm))
    return tuple(instrs)


# ---------------------------------------------------------------- rendering
def render(plan: FuzzPlan, secret: int) -> Program:
    """Lower ``plan`` with a concrete ``secret`` to a runnable program.

    The instruction stream and every data-segment *address* depend only on
    the plan; the secret changes nothing but the secret region's contents.
    """
    rng = random.Random(f"fuzz-render:{plan.profile}:{plan.seed}")
    b = ProgramBuilder(f"fuzz-{plan.profile}-{plan.seed}",
                       data_base=FUZZ_BASE)
    heap = b.alloc_words("heap",
                         [rng.getrandbits(64) for _ in range(_HEAP_WORDS)])
    # Cache-line aligned so no filler (or checksum) access shares a line
    # with secret bytes: the only lines whose state can depend on the
    # secret are the ones a leak gadget touches.
    secret_base = b.alloc_bytes("secret", secret_region(secret), align=64)
    probe = b.reserve("probe", PROBE_LINES * PROBE_LINE_BYTES,
                      align=PROBE_LINE_BYTES)
    b.li("s0", heap)
    b.li("s1", probe)
    b.li("s2", secret_base)
    for reg in _FILLER_REGS:
        b.li(reg, rng.getrandbits(12))
    for index, block in enumerate(plan.blocks):
        if isinstance(block, Gadget):
            _render_gadget(b, block, index, secret_base)
        elif isinstance(block, Loop):
            with b.loop(count=block.count, counter="t6"):
                _render_instrs(b, block.instrs)
        elif isinstance(block, Branch):
            else_label = b.forward_label()
            join = b.forward_label()
            b.emit(block.op, rs1=block.rs1, rs2=block.rs2, imm=else_label)
            _render_instrs(b, block.then_instrs)
            b.jal(0, join)
            b.place(else_label)
            _render_instrs(b, block.else_instrs)
            b.place(join)
        else:
            _render_instrs(b, block.instrs)
    # Public checksum (filler registers only — never s6/s7/s8), stored past
    # the filler-addressable window.
    b.li("t0", 0)
    for reg in _FILLER_REGS:
        b.add("t0", "t0", reg)
    b.sd("t0", "s0", _CHECKSUM_OFFSET)
    b.halt()
    return b.build()


def _render_instrs(b: ProgramBuilder, instrs: tuple) -> None:
    for instr in instrs:
        kind = instr[0]
        if kind == "ALU":
            _, op, rd, rs1, rs2 = instr
            b.emit(op, rd=rd, rs1=rs1, rs2=rs2)
        elif kind == "ALUI":
            _, op, rd, rs1, imm = instr
            b.emit(op, rd=rd, rs1=rs1, imm=imm)
        elif kind == "MEM":
            _, op, reg, src, offset = instr
            b.andi("t5", src, _MEM_MASK)
            b.add("t5", "t5", "s0")
            if op.startswith("L"):
                b.emit(op, rd=reg, rs1="t5", imm=offset)
            else:
                b.emit(op, rs1="t5", rs2=reg, imm=offset)
        else:
            raise ValueError(f"unknown filler instruction {instr!r}")


def _render_transmit(b: ProgramBuilder, value_reg: str, shift: int) -> None:
    """Touch probe lines as a function of ``value_reg`` (transient only)."""
    b.slli("a2", value_reg, shift)
    b.add("a2", "a2", "s1")
    b.lb("a3", "a2", 0)


def _render_transmit_branch(b: ProgramBuilder, value_reg: str) -> None:
    """Branch on a secret bit; arms touch distinct probe lines."""
    b.andi("a2", value_reg, 1)
    other = b.forward_label()
    join = b.forward_label()
    b.bne("a2", "zero", other)
    b.lb("a3", "s1", 0)
    b.jal(0, join)
    b.place(other)
    b.lb("a3", "s1", PROBE_LINE_BYTES)
    b.place(join)


def _render_transmit_loop(b: ProgramBuilder, value_reg: str,
                          shift: int) -> None:
    """Loop with a secret-derived trip count, one probe line per pass."""
    b.andi("a2", value_reg, 3)
    b.addi("a2", "a2", 1)
    top = b.label()
    b.slli("a3", "a2", shift)
    b.add("a3", "a3", "s1")
    b.lb("a4", "a3", 0)
    b.addi("a2", "a2", -1 & ((1 << 64) - 1))
    b.bne("a2", "zero", top)


def _transmit(b: ProgramBuilder, gadget: Gadget, value_reg: str) -> None:
    if gadget.transmit == "line":
        _render_transmit(b, value_reg, gadget.shift)
    elif gadget.transmit == "branch":
        _render_transmit_branch(b, value_reg)
    elif gadget.transmit == "loop":
        _render_transmit_loop(b, value_reg, gadget.shift)
    else:
        raise ValueError(f"unknown transmitter {gadget.transmit!r}")


def _render_gadget(b: ProgramBuilder, gadget: Gadget, index: int,
                   secret_base: int) -> None:
    if gadget.exposure == SPECULATIVE:
        _render_bounds_bypass(b, gadget, index, secret_base)
    elif gadget.exposure == NONSPECULATIVE:
        _render_mistrain_call(b, gadget, index)
    else:
        raise ValueError(f"unknown exposure {gadget.exposure!r}")


def _render_bounds_bypass(b: ProgramBuilder, gadget: Gadget, index: int,
                          secret_base: int) -> None:
    """``if (i < N) use(A[i])`` with the final i reaching the secret region.

    Architecturally the out-of-bounds pass takes the bounds-check branch
    (the access never commits); transiently, after mis-training, the
    secret-region byte flows into the transmitter.
    """
    victim = b.alloc_bytes(f"g{index}_victim",
                           [v % 16 for v in range(gadget.in_bounds)])
    # The out-of-bounds index lands exactly on the chosen secret byte.
    indices = ([*range(gadget.in_bounds)] * gadget.trainings
               + [secret_base + gadget.secret_index - victim])
    index_base = b.alloc_words(f"g{index}_idx", indices)

    b.li("t0", victim)
    b.li("t1", gadget.in_bounds)      # the bound
    b.li("s3", index_base)            # index cursor
    # Warm the target secret line.  The value is discarded into x0 and the
    # address is public, so this is architecturally secret-independent; it
    # only ensures the transient access wins the race against the squash.
    b.lb("zero", "s2", gadget.secret_index)
    # Warm the attacker-controlled index array so the per-pass index load
    # hits while the widened bound resolves late.
    warm_words(b, "s3", len(indices), cursor="a0", counter="t4")
    with b.loop(count=len(indices), counter="s9"):
        b.ld("a0", "s3", 0)
        b.addi("s3", "s3", 8)
        slow_copy(b, "t2", "t1", gadget.widen)   # slow bound
        skip = b.forward_label()
        # Unsigned: the out-of-bounds index wraps to a huge value, so the
        # check always catches it architecturally.
        b.bgeu("a0", "t2", skip)              # the bounds check
        b.add("a1", "t0", "a0")
        b.lb("a1", "a1", 0)                   # the transient secret access
        _transmit(b, gadget, "a1")
        b.place(skip)


def _render_mistrain_call(b: ProgramBuilder, gadget: Gadget,
                          index: int) -> None:
    """Leak a *non-speculatively* accessed secret via a mis-trained call.

    The victim loads a secret byte into ``s6`` architecturally and computes
    over it in constant time.  A polymorphic call site, trained on earlier
    iterations to dispatch to the transmitter, transiently runs the
    transmitter with ``s6`` live on the final iteration (which dispatches
    to a harmless handler architecturally).
    """
    train_rng = random.Random(f"fuzz-train:{index}:{gadget.trainings}")
    values = b.alloc_bytes(
        f"g{index}_vals",
        [train_rng.getrandbits(8) for _ in range(gadget.trainings)])

    gadget_label = b.forward_label(f"g{index}_gadget")
    legit = b.forward_label(f"g{index}_legit")
    after = b.forward_label(f"g{index}_after")

    # Warm the secret line (value discarded, address public) so the
    # architectural secret load returns before the mispredicted call
    # resolves.
    b.lb("zero", "s2", gadget.secret_index)
    b.li("s3", 0)                     # iteration index
    b.li("t0", gadget.trainings)      # the final (attack) iteration number
    with b.loop(count=gadget.trainings + 1, counter="t4"):
        load_secret = b.forward_label()
        loaded = b.forward_label()
        b.beq("s3", "t0", load_secret)
        b.li("a0", values)
        b.add("a0", "a0", "s3")
        b.lb("s6", "a0", 0)           # training byte (public)
        b.jal(0, loaded)
        b.place(load_secret)
        b.lb("s6", "s2", gadget.secret_index)   # the non-spec secret load
        b.place(loaded)
        # Constant-time computation over the byte (never leaks it).
        b.xori("s7", "s6", 0x3C)
        b.add("s7", "s7", "s7")
        b.xor("s8", "s7", "s6")
        # Dispatch target: the transmitter while training, `legit` last.
        is_last = b.forward_label()
        picked = b.forward_label()
        b.beq("s3", "t0", is_last)
        b.li("t1", gadget_label)
        b.jal(0, picked)
        b.place(is_last)
        b.li("t1", legit)
        b.place(picked)
        slow_copy(b, "t2", "t1", gadget.widen)
        b.jalr("ra", "t2", 0)         # the polymorphic call site
        b.addi("s3", "s3", 1)
    b.jal(0, after)

    b.place(gadget_label)
    _transmit(b, gadget, "s6")
    b.jalr(0, "ra", 0)

    b.place(legit)
    b.addi("s7", "s7", 1)
    b.jalr(0, "ra", 0)

    b.place(after)


# --------------------------------------------------------- plan (de)serialise
# Block classes by their JSON ``type``, the lower-cased class name; each
# field is a JSON key of its own name, except the branch arms, which are
# stored as "then"/"else".
_BLOCK_TYPES = {cls.__name__.lower(): cls
                for cls in (Filler, Loop, Branch, Gadget)}
_JSON_KEYS = {"then_instrs": "then", "else_instrs": "else"}


def plan_to_json(plan: FuzzPlan) -> dict:
    """A JSON-safe encoding of ``plan`` (corpus storage / reproduction)."""
    blocks = []
    for block in plan.blocks:
        blob = {"type": type(block).__name__.lower()}
        for f in fields(block):
            value = getattr(block, f.name)
            blob[_JSON_KEYS.get(f.name, f.name)] = (
                [list(i) for i in value] if isinstance(value, tuple)
                else value)
        blocks.append(blob)
    return {"seed": plan.seed, "profile": plan.profile, "blocks": blocks}


def plan_from_json(data: dict) -> FuzzPlan:
    """Rebuild a plan from :func:`plan_to_json` output."""
    blocks: list = []
    for blob in data["blocks"]:
        cls = _BLOCK_TYPES.get(blob["type"])
        if cls is None:
            raise ValueError(f"unknown block type {blob['type']!r}")
        values = {}
        for f in fields(cls):
            value = blob[_JSON_KEYS.get(f.name, f.name)]
            values[f.name] = (tuple(tuple(i) for i in value)
                              if isinstance(value, list) else value)
        blocks.append(cls(**values))
    return FuzzPlan(data["seed"], data["profile"], tuple(blocks))


def with_blocks(plan: FuzzPlan, blocks) -> FuzzPlan:
    """A copy of ``plan`` with a different block list (minimiser edits)."""
    return replace(plan, blocks=tuple(blocks))


# ------------------------------------------------------- dynamic workloads
def workload_name(profile: str, seed: int, secret: int) -> str:
    """The registry name running one (plan, secret) rendering."""
    return f"fuzz:{profile}:{seed}:{secret:x}"


def workload_from_name(name: str) -> Optional[Workload]:
    """Resolve ``fuzz:<profile>:<seed>:<secret-hex>`` to a Workload.

    :func:`repro.workloads.registry.get` calls it for every ``fuzz:``
    name; it lets worker processes (and the result cache) rebuild any fuzz
    victim from its name alone.
    """
    parts = name.split(":")
    if len(parts) != 4 or parts[0] != "fuzz":
        return None
    _, profile, seed_text, secret_hex = parts
    if profile not in PROFILES:
        raise KeyError(f"unknown fuzz profile {profile!r}; "
                       f"known: {sorted(PROFILES)}")
    try:
        seed = int(seed_text)
        secret = int(secret_hex, 16)
    except ValueError as exc:
        raise KeyError(f"malformed fuzz workload name {name!r}") from exc

    def build(scale: int = 1) -> Program:
        return render(generate_plan(seed, profile), secret)

    return Workload(name, "fuzz", build,
                    f"fuzz victim (profile={profile}, seed={seed})",
                    twin_key=f"fuzz:{profile}:{seed}")
