"""Guard the ``__slots__`` declarations on the hot in-flight classes.

These classes are allocated (DynInst, AccessResult) or indexed (RenameUnit)
millions of times per simulation; a dropped ``__slots__`` silently
reintroduces a per-instance ``__dict__`` and costs both memory and speed.
The ``ast`` guards below also keep the core to one cycle body, the
rename unit, the memory hierarchy and the branch predictor to methods the
package calls, and the package to attributes something reads.
"""

import ast
import functools
import inspect
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.isa.instructions import Instruction
from repro.isa.opcodes import OPCODES, Kind
from repro.memory.cache import Cache
from repro.memory.hierarchy import AccessResult, MemoryHierarchy
from repro.pipeline.branch_predictor import BranchPredictor
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


@functools.cache
def sources(root: Path) -> tuple:
    """``(path, module AST)`` for every Python source under ``root``,
    parsed once for all the guards below."""
    return tuple((path, ast.parse(path.read_text(), str(path)))
                 for path in root.rglob("*.py"))


def nodes(root: Path, skip: Path = None):
    """Every AST node of the Python sources under ``root``, except in the
    file ``skip``."""
    for path, tree in sources(root):
        if path != skip:
            yield from ast.walk(tree)


def attributes(root: Path, skip: Path = None):
    """Every ``x.name`` node in the Python sources under ``root``, except
    in the file ``skip``."""
    return (node for node in nodes(root, skip)
            if isinstance(node, ast.Attribute))


def attribute_loads(root: Path, skip: Path = None) -> set:
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


def test_every_stored_attribute_is_read():
    # A field or counter the package writes and nothing reads shows up in
    # no metric, report or check, yet every write costs (some sit on
    # per-branch or per-eviction paths).  ``x.name += 1`` is a write
    # only; ``getattr(x, "name")`` is a read.
    read = attribute_loads(PACKAGE) | {
        node.args[1].value for node in nodes(PACKAGE)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "getattr" and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)}
    stored = {node.attr for node in attributes(PACKAGE)
              if isinstance(node.ctx, ast.Store)}
    unread = sorted(stored - read)
    assert unread == [], f"attributes nothing reads: {unread}"


def test_every_memory_and_predictor_method_has_a_caller():
    # A method nothing in the package references outside its own module
    # is an operation no run performs, and a test of it checks code no
    # run takes.
    uncalled = []
    for cls in (MemoryHierarchy, Cache, BranchPredictor):
        referenced = attribute_loads(PACKAGE, Path(inspect.getfile(cls)))
        uncalled += [f"{cls.__name__}.{name}"
                     for name, value in vars(cls).items()
                     if inspect.isfunction(value)
                     and not name.startswith("_")
                     and name not in referenced]
    assert uncalled == [], \
        f"methods nothing outside their module calls: {uncalled}"


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
