"""Unit tests for the programmatic builder."""

import pytest

from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import IsaError
from repro.isa.interpreter import run_program


def test_alloc_words_initialises_memory():
    b = ProgramBuilder(data_base=0x2000)
    address = b.alloc_words("data", [1, 2, 3])
    b.halt()
    program = b.build()
    assert address == 0x2000
    assert program.initial_memory.read(0x2000, 8) == (1).to_bytes(8, "little")
    assert program.initial_memory.read(0x2010, 8) == (3).to_bytes(8, "little")
    assert program.data_symbols["data"] == 0x2000


def test_alloc_bytes_and_reserve_alignment():
    b = ProgramBuilder(data_base=0x1001)
    bytes_at = b.alloc_bytes("b", [9, 8], align=8)
    reserved = b.reserve("r", 100, align=64)
    assert bytes_at == 0x1008
    assert reserved % 64 == 0
    assert reserved >= bytes_at + 2


def test_loop_helper_executes_count_times():
    b = ProgramBuilder()
    b.li("a0", 0)
    with b.loop(count=7, counter="t0"):
        b.addi("a0", "a0", 1)
    b.halt()
    result = run_program(b.build())
    assert result.reg(10) == 7


def test_nested_loops():
    b = ProgramBuilder()
    b.li("a0", 0)
    with b.loop(count=3, counter="t0"):
        with b.loop(count=4, counter="t1"):
            b.addi("a0", "a0", 1)
    b.halt()
    assert run_program(b.build()).reg(10) == 12


def test_forward_label_must_be_placed():
    b = ProgramBuilder()
    label = b.forward_label()
    b.jal(0, label)
    b.halt()
    with pytest.raises(IsaError, match="never placed"):
        b.build()


def test_label_cannot_be_placed_twice():
    b = ProgramBuilder()
    b.label("x")
    b.nop()
    with pytest.raises(IsaError, match="placed twice"):
        b.label("x")


def test_unresolved_symbol_rejected():
    b = ProgramBuilder()
    b.jal(0, "nowhere")
    with pytest.raises(IsaError, match="unresolved"):
        b.build()


def test_getattr_emitters_match_emit():
    b = ProgramBuilder()
    b.add("a0", "a1", "a2")
    b.addi("a3", "a0", 5)
    b.ld("a4", "sp", 8)
    b.sd("a4", "sp", 16)
    b.beq("a0", "zero", "end")
    b.place("end") if "end" in b._labels else b.label("end")
    b.halt()
    program = b.build()
    ops = [inst.op for inst in program.instructions]
    assert ops == ["ADD", "ADDI", "LD", "SD", "BEQ", "HALT"]
    store = program.instructions[3]
    assert store.rs1 == 2 and store.rs2 == 14      # base sp, data a4


def test_getattr_unknown_op_raises_attribute_error():
    b = ProgramBuilder()
    with pytest.raises(AttributeError):
        b.frobnicate("a0", "a1")


def test_builder_and_assembler_agree():
    from repro.isa.assembler import assemble
    b = ProgramBuilder()
    b.li("t0", 3)
    b.slli("t1", "t0", 4)
    b.halt()
    built = b.build()
    assembled = assemble("li t0, 3\nslli t1, t0, 4\nhalt")
    assert [str(i) for i in built.instructions] == \
        [str(i) for i in assembled.instructions]
