"""Relational execution: one core simulating two twin programs at once.

*Twin programs* have the same instruction stream and the same image
layout; only their image bytes differ, as two renderings of one fuzz plan
with two secrets do.  The non-interference oracle runs such a pair and
compares the attacker-visible traces.  :class:`PairedCore` carries both
runs through one cycle-level simulation, the product construction of
self-composition (SPECTECTOR, AMuLeT's input pairs) applied to the core.

**Values.**  A value is a plain int where the two runs agree and a
:class:`Pair` only where they differ, the idiom of
:mod:`repro.verify.expr` (terms stay ints until a secret is involved).
Pairs are computed over the shared semantics tables of
:mod:`repro.isa.semantics` through :class:`PairDomain`, and live in the
rename value file, in :class:`PairedMemory` (the twin's differing image
bytes and paired stores), in store data and in forwarded load data.

**Steering sites.**  A value steers the machine at four sites: a load or
a store effective address at execute, and a branch outcome or an
indirect-jump target when ``_apply_resolution`` applies it.  A Pair at
one of them raises :class:`Divergence`; the caller then runs the two
programs separately.  A Pair outcome that is squashed before it resolves
(a transient secret branch SPT holds back) steers nothing.

**Soundness.**  By induction over cycles: while no steering site has
seen a Pair, the two separate runs make the same fetches, renames, issue
choices, cache accesses, predictor updates and squashes, so their
machines differ only in the values the Pairs record.  Every other read
of a value only propagates it into another value.  At the first Pair
that would steer, the paired core stops.  The audited list of value reads
is in DESIGN.md ("Fuzzing oracle").

**Cost.**  The core binds its value operations as class attributes
(``_alu``, ``_address``, ``_truncate``, ``_branch_outcome``,
``_jump_outcome``, ``_apply_resolution``); :class:`PairedCore` overrides
them, so a plain :class:`~repro.pipeline.core.OoOCore` runs no
per-instruction pair test.
"""

from __future__ import annotations

import copy
from typing import Optional

from repro.isa.instructions import MemoryImage, Program
from repro.isa.opcodes import WORD_MASK, Kind
from repro.isa.semantics import (ConcreteDomain, alu_result,
                                 build_alu_table, effective_address)
from repro.memory.main_memory import MainMemory, uninit_byte
from repro.pipeline.core import OoOCore, SimResult
from repro.pipeline.engine_api import ProtectionEngine
from repro.pipeline.params import MachineParams

# The steering sites, as `Divergence.site` names them.
LOAD_ADDRESS = "load-address"
STORE_ADDRESS = "store-address"
BRANCH = "branch"
INDIRECT_JUMP = "indirect-jump"
SITES = (LOAD_ADDRESS, STORE_ADDRESS, BRANCH, INDIRECT_JUMP)


class Pair:
    """A value on which the two runs differ: ``a`` in the first run, ``b``
    in the second (never equal; :func:`join` builds them).

    A Pair has no truth value, no order and no hash: a site that would
    branch on one outside a steering check raises ``TypeError`` instead of
    silently following one side.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        return f"Pair({self.a!r}, {self.b!r})"

    def _unsteerable(self, *_args):
        raise TypeError(f"{self!r} reached a site that may not read a "
                        f"paired value")

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = \
        __index__ = __int__ = _unsteerable
    __hash__ = None


def join(a, b):
    """The value of two sides: plain where they agree, else a Pair."""
    return a if a == b else Pair(a, b)


def side(value, index: int):
    """Side ``index`` (0 or 1) of a value."""
    if type(value) is Pair:
        return value.b if index else value.a
    return value


def _lift1(fn):
    def lifted(x):
        if type(x) is Pair:
            return join(fn(x.a), fn(x.b))
        return fn(x)
    return lifted


def _lift2(fn):
    def lifted(x, y):
        if type(x) is Pair:
            if type(y) is Pair:
                return join(fn(x.a, y.a), fn(x.b, y.b))
            return join(fn(x.a, y), fn(x.b, y))
        if type(y) is Pair:
            return join(fn(x, y.a), fn(x, y.b))
        return fn(x, y)
    return lifted


class PairDomain:
    """The value domain over int-or-Pair values: every primitive of
    :class:`~repro.isa.semantics.ConcreteDomain`, applied side by side."""

    name = "paired"


for _name, _member in vars(ConcreteDomain).items():
    if isinstance(_member, staticmethod):
        _fn = _member.__func__
        _lift = _lift1 if _fn.__code__.co_argcount == 1 else _lift2
        setattr(PairDomain, _name, staticmethod(_lift(_fn)))

_PAIR_ALU = build_alu_table(PairDomain)


def pair_alu_result(inst, a, b):
    """:func:`~repro.isa.semantics.alu_result` over paired operands."""
    if type(a) is not Pair and type(b) is not Pair:
        return alu_result(inst, a, b)
    return _PAIR_ALU[inst.op](a, b, inst.imm)


def pair_truncate(value, size: int):
    """The low ``size`` bytes of a (paired) value."""
    return PairDomain.and_(value, (1 << (8 * size)) - 1)


class Divergence(Exception):
    """A steering site of a :class:`PairedCore` saw a Pair: from here the
    two runs part ways.  ``site`` is one of :data:`SITES`."""

    def __init__(self, site: str, inst):
        super().__init__(f"{site} depends on the secret at `{inst}`")
        self.site = site


def twins(a: Program, b: Program) -> bool:
    """Same instruction stream and image layout (bytes may differ)."""
    return (list(a.instructions) == list(b.instructions)
            and _layout(a.initial_memory) == _layout(b.initial_memory))


def _layout(image: MemoryImage) -> list:
    return [(base, len(data)) for base, data in image.segments()]


# Paired bytes are indexed by 64-byte block, so a load tests at most two
# set entries before it takes the plain path.
_BLOCK_SHIFT = 6


class PairedMemory(MainMemory):
    """Main memory of twin programs: the first program's image, the
    twin's image, and one overlay whose bytes may be Pairs.

    ``_pair_blocks`` holds every block where some byte may differ between
    the runs (the images' differing bytes, then every byte a paired store
    writes).  A load that touches none of them is the plain load; one that
    does reads both sides byte by byte.
    """

    def __init__(self, image: MemoryImage, twin: MemoryImage,
                 uninit_seed: Optional[int] = None):
        super().__init__(image, uninit_seed)
        self._twin = twin
        blocks: set = set()
        for (base, ours), (_, theirs) in zip(image.segments(),
                                             twin.segments()):
            if ours != theirs:
                blocks.update((base + offset) >> _BLOCK_SHIFT
                              for offset, (x, y)
                              in enumerate(zip(ours, theirs)) if x != y)
        self._pair_blocks = blocks

    def load(self, address: int, size: int):
        address &= WORD_MASK
        blocks = self._pair_blocks
        end = address + size - 1
        if (end > WORD_MASK or address >> _BLOCK_SHIFT in blocks
                or end >> _BLOCK_SHIFT in blocks):
            return self._load_pair(address, size)
        return MainMemory.load(self, address, size)

    def _load_pair(self, address: int, size: int):
        data = self._bytes
        images = (self._image, self._twin)
        seed = self._uninit_seed
        values = [0, 0]
        for offset in range(size):
            addr = (address + offset) & WORD_MASK
            byte = data.get(addr)
            for index in (0, 1):
                got = side(byte, index)
                if got is None:
                    got = images[index].get(addr)
                    if got is None:
                        got = 0 if seed is None else uninit_byte(seed, addr)
                values[index] |= got << (8 * offset)
        return join(*values)

    def store(self, address: int, value, size: int) -> None:
        if type(value) is not Pair:
            MainMemory.store(self, address, value, size)
            return
        data = self._bytes
        for offset in range(size):
            addr = (address + offset) & WORD_MASK
            shift = 8 * offset
            byte = join((value.a >> shift) & 0xFF, (value.b >> shift) & 0xFF)
            data[addr] = byte
            if type(byte) is Pair:
                self._pair_blocks.add(addr >> _BLOCK_SHIFT)

    def side(self, index: int) -> MainMemory:
        """Side ``index``'s memory, as its separate run leaves it."""
        memory = MainMemory(self._twin if index else self._image,
                            self._uninit_seed)
        memory._bytes = {addr: side(byte, index)
                         for addr, byte in self._bytes.items()}
        return memory


class PairedCore(OoOCore):
    """An :class:`OoOCore` running ``program`` and its twin in one
    simulation.

    :meth:`run` returns the first program's :class:`SimResult` and leaves
    the twin's in :attr:`twin_result`; each equals what a separate run of
    that program returns.  A steering site raises :class:`Divergence`.
    The lockstep sanitizer checks one program, so a paired core refuses a
    ``check_level`` other than ``"off"``.
    """

    def __init__(self, program: Program, twin: Program,
                 engine: Optional[ProtectionEngine] = None,
                 params: Optional[MachineParams] = None):
        params = params or MachineParams()
        if params.check_level != "off":
            raise ValueError("a paired core runs without the sanitizer")
        if not twins(program, twin):
            raise ValueError(f"{program.name} and {twin.name} are not "
                             f"twins")
        super().__init__(program, engine, params)
        self.memory = PairedMemory(program.initial_memory,
                                   twin.initial_memory,
                                   self.params.uninit_secret_seed)
        self.twin_result: Optional[SimResult] = None

    # ------------------------------------------------ paired value operations
    _alu = staticmethod(pair_alu_result)
    _truncate = staticmethod(pair_truncate)

    @staticmethod
    def _address(inst, base):
        if type(base) is Pair:
            raise Divergence(LOAD_ADDRESS if inst.info.kind == Kind.LOAD
                             else STORE_ADDRESS, inst)
        return effective_address(inst, base)

    def _branch_outcome(self, di) -> None:
        self._side_by_side(di, OoOCore._branch_outcome)

    def _jump_outcome(self, di) -> None:
        self._side_by_side(di, OoOCore._jump_outcome)

    def _side_by_side(self, di, outcome) -> None:
        """Run a control outcome (``actual_*``, ``mispredicted``) once per
        side when an operand is a Pair, and join the fields."""
        rs1, rs2 = di.rs1_value, di.rs2_value
        if type(rs1) is not Pair and type(rs2) is not Pair:
            outcome(self, di)
            return
        fields = []
        for index in (0, 1):
            di.rs1_value = side(rs1, index)
            di.rs2_value = side(rs2, index)
            outcome(self, di)
            fields.append((di.actual_taken, di.actual_target,
                           di.mispredicted))
        di.rs1_value, di.rs2_value = rs1, rs2
        di.actual_taken, di.actual_target, di.mispredicted = \
            (join(a, b) for a, b in zip(*fields))

    def _apply_resolution(self, di) -> None:
        if (type(di.actual_taken) is Pair or type(di.actual_target) is Pair
                or type(di.mispredicted) is Pair):
            raise Divergence(BRANCH if di.kind == Kind.BRANCH
                             else INDIRECT_JUMP, di.inst)
        OoOCore._apply_resolution(self, di)

    # ------------------------------------------------------------------ run
    def run(self, max_instructions: int = 1_000_000) -> SimResult:
        sim, self.twin_result = self.sides(super().run(max_instructions))
        return sim

    def sides(self, sim: SimResult,
              engine: Optional[ProtectionEngine] = None) -> tuple:
        """``sim``, a result of this core with ``engine``'s metrics (default:
        the core's engine), as each side's separate run returns it.  Both
        sides share the observer: their attacker-visible events are the
        same."""
        return tuple(self._side_result(sim, index, engine) for index in (0, 1))

    def _side_result(self, sim: SimResult, index: int,
                     engine: Optional[ProtectionEngine]) -> SimResult:
        out = copy.copy(sim)
        out.arch_regs = [side(value, index) for value in sim.arch_regs]
        out.memory = self.memory.side(index)
        if index:
            out.metrics = self.build_metrics(engine)
            if sim.retired_pcs is not None:
                out.retired_pcs = list(sim.retired_pcs)
        return out
