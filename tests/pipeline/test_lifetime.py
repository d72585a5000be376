"""A finished simulation is freed by reference counting alone.

The core owns its engine, sanitizer, hierarchy and memory; the engine and
the sanitizer reach back to the core only through weak references.  So
once a run's core, engine and result are dropped, nothing of the
simulation survives, even with the cycle collector switched off: a strong
back-reference anywhere would make the whole core cyclic garbage that
only the collector could free.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.check.invariants import CHECK_LEVELS
from repro.core.attack_model import AttackModel
from repro.core.shadow_l1 import ShadowMode
from repro.core.spt import ReferenceSPTEngine
from repro.harness.configs import CONFIGURATIONS, make_engine
from repro.isa.assembler import assemble
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams
from repro.pipeline.trace import trace_program

# A pointer chase through the program's image, a store and a loop branch:
# delayed transmitters, untaints, the shadow L1 and the sanitizer's retire
# lockstep all get exercised.
PROGRAM = assemble("""
    .word 0x2000 0x2040
    li s1, 0x2000
    li t0, 0
    li t1, 6
loop:
    ld a0, 0(s1)
    ld a1, 0(a0)
    add a1, a1, t0
    sd a1, 8(s1)
    addi t0, t0, 1
    blt t0, t1, loop
    halt
""")

ENGINES = {name: (lambda name=name: make_engine(name, AttackModel.FUTURISTIC))
           for name in CONFIGURATIONS}
ENGINES["ReferenceSPTEngine"] = lambda: ReferenceSPTEngine(
    AttackModel.FUTURISTIC, backward=True, shadow=ShadowMode.L1)


@pytest.fixture
def no_collector():
    """Only reference counting may free anything inside the test."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _run_and_drop(engine_name: str, level: str):
    engine = ENGINES[engine_name]()
    core = OoOCore(PROGRAM, engine=engine,
                   params=MachineParams(check_level=level))
    result = core.run(max_instructions=1000)
    assert result.halted
    refs = weakref.ref(core), weakref.ref(engine)
    del core, engine, result
    return refs


@pytest.mark.parametrize("level", CHECK_LEVELS)
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_finished_core_is_freed_at_refcount_zero(no_collector, engine_name,
                                                 level):
    core_ref, engine_ref = _run_and_drop(engine_name, level)
    assert core_ref() is None, "the core outlived its last reference"
    assert engine_ref() is None, "the engine outlived its last reference"


def test_engine_keeps_its_counters_after_the_core_is_gone(no_collector):
    engine = ENGINES["SPT{Bwd,ShadowL1}"]()
    core = OoOCore(PROGRAM, engine=engine)
    assert core.run(max_instructions=1000).halted
    untaints = engine.untaint.total
    assert untaints and engine.core is core
    del core
    assert engine.core is None
    assert engine.untaint.total == untaints
    assert engine.metrics_tree().flatten()


def test_traced_core_is_freed_with_its_tracer(no_collector):
    engine = ENGINES["SPT{Bwd,ShadowL1}"]()
    tracer = trace_program(PROGRAM, engine=engine)
    assert tracer.entries
    refs = weakref.ref(tracer.core), weakref.ref(engine)
    del tracer, engine
    assert [ref() for ref in refs] == [None, None]
