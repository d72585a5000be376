"""Unit tests for the static instruction and program containers."""

import pytest

from repro.isa.instructions import (Instruction, IsaError, Program, load_word,
                                    store_word)


def test_instruction_validates_opcode_and_registers():
    with pytest.raises(IsaError):
        Instruction("NOSUCH")
    with pytest.raises(IsaError):
        Instruction("ADD", rd=32)
    with pytest.raises(IsaError):
        Instruction("ADD", rs1=-1)


def test_source_and_dest_registers():
    add = Instruction("ADD", rd=3, rs1=1, rs2=2)
    assert add.info.reads_rs1 and add.info.reads_rs2
    assert add.dest_reg() == 3
    store = Instruction("SD", rs1=4, rs2=5)
    assert store.info.reads_rs1 and store.info.reads_rs2
    assert store.dest_reg() is None
    x0_write = Instruction("LI", rd=0, imm=7)
    assert x0_write.dest_reg() is None


def test_str_formats():
    assert str(Instruction("ADD", rd=1, rs1=2, rs2=3)) == "add x1, x2, x3"
    assert str(Instruction("LD", rd=1, rs1=2, imm=8)) == "ld x1, 8(x2)"
    assert str(Instruction("SD", rs1=2, rs2=1, imm=-8)) == "sd x1, -8(x2)"
    assert str(Instruction("HALT")) == "halt"
    assert str(Instruction("LI", rd=5, imm=42)) == "li x5, 42"


def test_program_requires_instructions():
    with pytest.raises(IsaError):
        Program([])


def test_program_validates_memory_image():
    inst = [Instruction("HALT")]
    with pytest.raises(IsaError):
        Program(inst, initial_memory={-1: 0})
    with pytest.raises(IsaError):
        Program(inst, initial_memory={0: 256})


def test_program_fetch_bounds():
    program = Program([Instruction("NOP"), Instruction("HALT")])
    assert program.fetch(0).op == "NOP"
    assert program.fetch(1).op == "HALT"
    assert program.fetch(2) is None
    assert program.fetch(-1) is None


def test_store_load_word_helpers():
    memory: dict = {}
    store_word(memory, 0x10, 0x0102030405060708, 8)
    assert memory[0x10] == 0x08 and memory[0x17] == 0x01
    assert load_word(memory, 0x10, 8) == 0x0102030405060708
    assert load_word(memory, 0x10, 2) == 0x0708


def test_program_iteration_and_len():
    program = Program([Instruction("NOP"), Instruction("HALT")])
    assert len(program) == 2
    assert [i.op for i in program] == ["NOP", "HALT"]
