"""Unit tests for opcode metadata."""

import pytest

from repro.isa.opcodes import (BRANCH_OPS, LOAD_OPS, OPCODES, STORE_OPS, Kind,
                               to_signed, to_unsigned)


def test_every_opcode_has_consistent_kind_flags():
    for name, info in OPCODES.items():
        assert info.name == name
        if info.kind == Kind.LOAD:
            assert info.writes_rd and info.reads_rs1 and info.mem_size > 0
        if info.kind == Kind.STORE:
            assert info.reads_rs1 and info.reads_rs2 and info.mem_size > 0
            assert not info.writes_rd
        if info.kind == Kind.BRANCH:
            assert info.reads_rs1 and info.reads_rs2 and not info.writes_rd


def test_transmitters_are_exactly_loads_and_stores():
    transmitters = {n for n, i in OPCODES.items() if i.is_transmitter}
    assert transmitters == LOAD_OPS | STORE_OPS


def test_control_ops():
    controls = {n for n, i in OPCODES.items()
                if i.kind in (Kind.BRANCH, Kind.JUMP, Kind.JUMP_REG)}
    assert BRANCH_OPS < controls
    assert "JAL" in controls and "JALR" in controls
    assert "HALT" not in controls


def test_invertible_flags_match_backward_rule_semantics():
    # Invertible: knowing output + all-but-one input determines the rest.
    for op in ("ADD", "SUB", "XOR", "ADDI", "XORI", "MOV", "NOT",
               "ROTLI", "ROTRI"):
        assert OPCODES[op].invertible, op
    for op in ("AND", "OR", "SLL", "SRL", "MUL", "SLT", "ANDI", "ORI",
               "SLLI", "SRLI"):
        assert not OPCODES[op].invertible, op


def test_memory_sizes():
    assert OPCODES["LD"].mem_size == 8
    assert OPCODES["LW"].mem_size == 4
    assert OPCODES["LH"].mem_size == 2
    assert OPCODES["LB"].mem_size == 1
    for load, store in (("LD", "SD"), ("LW", "SW"), ("LH", "SH"), ("LB", "SB")):
        assert OPCODES[load].mem_size == OPCODES[store].mem_size


def test_latencies():
    assert OPCODES["ADD"].latency == 1
    assert OPCODES["MUL"].latency > OPCODES["ADD"].latency
    assert OPCODES["DIV"].latency > OPCODES["MUL"].latency


@pytest.mark.parametrize("value,expected", [
    (0, 0), (1, 1), ((1 << 63) - 1, (1 << 63) - 1),
    (1 << 63, -(1 << 63)), ((1 << 64) - 1, -1),
])
def test_to_signed(value, expected):
    assert to_signed(value) == expected


def test_to_unsigned_wraps():
    assert to_unsigned(-1) == (1 << 64) - 1
    assert to_unsigned(1 << 64) == 0
    assert to_unsigned(123) == 123


def test_signed_unsigned_roundtrip():
    for value in (0, 1, 2**63 - 1, 2**63, 2**64 - 1):
        assert to_unsigned(to_signed(value)) == value
