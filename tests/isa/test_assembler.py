"""Unit tests for the text assembler."""

import pytest

from repro.isa.assembler import assemble, parse_register
from repro.isa.instructions import IsaError


def test_parse_register_aliases():
    assert parse_register("zero") == 0
    assert parse_register("ra") == 1
    assert parse_register("sp") == 2
    assert parse_register("a0") == 10
    assert parse_register("t6") == 31
    assert parse_register("x17") == 17


def test_parse_register_rejects_garbage():
    for bad in ("x32", "y1", "a99", ""):
        with pytest.raises(IsaError):
            parse_register(bad)


def test_basic_program():
    program = assemble("""
        li  t0, 42          # a comment
        addi t0, t0, -2     ; another comment
        halt
    """)
    assert len(program) == 3
    assert program.instructions[0].op == "LI"
    assert program.instructions[0].imm == 42
    assert program.instructions[1].imm == -2 & ((1 << 64) - 1) or \
        program.instructions[1].imm == -2


def test_labels_forward_and_backward():
    program = assemble("""
    start:
        beq a0, zero, end
        jal zero, start
    end:
        halt
    """)
    assert program.symbols == {"start": 0, "end": 2}
    assert program.instructions[0].imm == 2
    assert program.instructions[1].imm == 0


def test_memory_operand_syntax():
    program = assemble("""
        ld a0, 16(sp)
        sd a1, -8(a0)
        halt
    """)
    load = program.instructions[0]
    assert (load.rd, load.rs1, load.imm) == (10, 2, 16)
    store = program.instructions[1]
    assert (store.rs2, store.rs1, store.imm) == (11, 10, -8)


def test_data_directives():
    program = assemble("""
        .data buf 0x1000
        .word buf 0xDEADBEEF
        .byte 0x1010 255
        ld a0, buf(zero)
        halt
    """)
    assert program.data_symbols["buf"] == 0x1000
    assert program.instructions[0].imm == 0x1000
    assert program.initial_memory.read(0x1000, 8) == \
        (0xDEADBEEF).to_bytes(8, "little")
    assert program.initial_memory[0x1010] == 255


def test_data_past_the_address_space_rejected():
    # The word's high four bytes would sit at 2^64..2^64+3, where every
    # access wraps to address 0.
    with pytest.raises(IsaError, match="address space"):
        assemble("""
            .data x 0xfffffffffffffffc
            .word x 0x1122334455667788
            ld a0, x(zero)
            halt
        """)


def test_duplicate_label_rejected():
    with pytest.raises(IsaError, match="duplicate"):
        assemble("a:\nnop\na:\nhalt")


def test_unknown_opcode_rejected():
    with pytest.raises(IsaError, match="unknown opcode"):
        assemble("frobnicate a0, a1\nhalt")


def test_wrong_operand_count_rejected():
    with pytest.raises(IsaError):
        assemble("add a0, a1\nhalt")


def test_empty_program_rejected():
    with pytest.raises(IsaError):
        assemble("# only a comment")


def test_label_on_same_line_as_instruction():
    program = assemble("loop: addi a0, a0, 1\nbne a0, zero, loop\nhalt")
    assert program.symbols["loop"] == 0


def test_hex_and_negative_immediates():
    program = assemble("li a0, 0xFF\nli a1, -7\nhalt")
    assert program.instructions[0].imm == 255
    assert program.instructions[1].imm == -7
