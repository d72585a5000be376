"""Guard the ``__slots__`` declarations on the hot in-flight classes.

These classes are allocated (DynInst, AccessResult) or indexed (RenameUnit)
millions of times per simulation; a dropped ``__slots__`` silently
reintroduces a per-instance ``__dict__`` and costs both memory and speed.
The ``ast`` guards below also keep the core to one cycle body and the
rename unit to methods the package calls.
"""

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.isa.instructions import Instruction
from repro.isa.opcodes import OPCODES, Kind
from repro.memory.hierarchy import AccessResult
from repro.pipeline.dyninst import DynInst
from repro.pipeline.rename import RenameUnit

from tests.conftest import PHASES


def make_dyninst() -> DynInst:
    return DynInst(0, 0, Instruction("ADD", rd=1, rs1=2, rs2=3))


def test_dyninst_rejects_arbitrary_attributes():
    di = make_dyninst()
    with pytest.raises(AttributeError):
        di.not_a_real_field = 1
    assert not hasattr(di, "__dict__")


def test_dyninst_kind_predicates_are_precomputed():
    di = make_dyninst()
    assert not di.is_load and not di.is_store and not di.is_transmitter
    load = DynInst(1, 0, Instruction("LD", rd=1, rs1=2))
    assert load.is_load and load.is_transmitter and not load.is_store
    store = DynInst(2, 0, Instruction("SD", rs1=1, rs2=2))
    assert store.is_store and store.is_transmitter and not store.is_load
    branch = DynInst(3, 0, Instruction("BEQ", rs1=1, rs2=2))
    assert branch.is_predicted_control


@pytest.mark.parametrize("name", sorted(OPCODES))
def test_precomputed_predicates_match_kind_for_every_opcode(name):
    # The hot-path booleans baked into DynInst at construction must agree
    # with the Kind-derived definitions for the whole ISA, so a new opcode
    # cannot ship with stale precomputes (the pipeline phases and the
    # engines consume these).
    info = OPCODES[name]
    di = DynInst(0, 0, Instruction(name, rd=1, rs1=2, rs2=3))
    assert di.is_load == (info.kind == Kind.LOAD)
    assert di.is_store == (info.kind == Kind.STORE)
    assert di.is_transmitter == info.is_transmitter
    assert di.is_transmitter == (info.kind in (Kind.LOAD, Kind.STORE))
    assert di.is_predicted_control == (info.kind in (Kind.BRANCH,
                                                     Kind.JUMP_REG))


PACKAGE = Path(repro.__file__).parent


def attributes(root: Path, skip: Path = None):
    """Every ``x.name`` node in the Python sources under ``root``, except
    in the file ``skip``."""
    for path in root.rglob("*.py"):
        if path == skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                yield node


def attribute_loads(root: Path, skip: Path) -> set:
    """Every attribute name read (``x.name`` in a load context) in the
    Python sources under ``root``, except the file ``skip``."""
    return {node.attr for node in attributes(root, skip)
            if isinstance(node.ctx, ast.Load)}


def test_every_dyninst_slot_is_read_outside_dyninst():
    # Every fetch fills in each slot (DynInst.reinit), so a slot nothing
    # reads is pure hot-path cost.  A field must have a reader in the
    # package before it joins the record.
    read = attribute_loads(PACKAGE, PACKAGE / "pipeline" / "dyninst.py")
    unread = [name for name in DynInst.__slots__ if name not in read]
    assert unread == [], f"DynInst slots nothing reads: {unread}"


def test_each_phase_is_referenced_once():
    # One reference each, from the one cycle body that ``run`` loops and
    # ``step`` calls: a second reference is a second cycle body, which can
    # drift from the first (skip its guards, its observers, its checks).
    refs = Counter(node.attr for node in attributes(PACKAGE))
    assert {name: refs[name] for name in PHASES} == \
        {name: 1 for name in PHASES}


def test_every_rename_method_has_a_caller():
    # The core holds its unit as ``rename`` and every caller reaches a
    # method through it (``core.rename.x``, or a local ``rename``): a
    # method nothing reaches that way only tests call, so it checks code
    # no run takes.
    called = set()
    for node in attributes(PACKAGE, PACKAGE / "pipeline" / "rename.py"):
        owner = node.value
        if ((isinstance(owner, ast.Attribute) and owner.attr == "rename")
                or (isinstance(owner, ast.Name) and owner.id == "rename")):
            called.add(node.attr)
    methods = [name for name, value in vars(RenameUnit).items()
               if inspect.isfunction(value) and not name.startswith("__")]
    uncalled = [name for name in methods if name not in called]
    assert uncalled == [], f"RenameUnit methods nothing calls: {uncalled}"


def test_renameunit_rejects_arbitrary_attributes():
    unit = RenameUnit(64)
    with pytest.raises(AttributeError):
        unit.scratch = object()
    assert not hasattr(unit, "__dict__")


def test_accessresult_rejects_arbitrary_attributes():
    access = AccessResult(2, "L1D", None)
    with pytest.raises(AttributeError):
        access.extra = True
    assert not hasattr(access, "__dict__")
