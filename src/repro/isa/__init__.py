"""ISA: instruction definitions, assembler, builder, and golden interpreter."""

from repro.isa.assembler import Assembler, assemble, parse_register
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import (Instruction, IsaError, MemoryImage,
                                    Program, store_word)
from repro.isa.interpreter import (ArchState, InterpResult, InterpreterError,
                                   run_program, step)
from repro.isa.opcodes import (BRANCH_OPS, LOAD_OPS, NUM_ARCH_REGS, OPCODES,
                               STORE_OPS, WORD_MASK, Kind, OpInfo, to_signed,
                               to_unsigned)
from repro.isa.semantics import alu_result, branch_taken, effective_address

__all__ = [
    "Assembler", "assemble", "parse_register", "ProgramBuilder",
    "Instruction", "IsaError", "MemoryImage", "Program", "store_word",
    "ArchState", "InterpResult", "InterpreterError", "run_program", "step",
    "BRANCH_OPS", "LOAD_OPS", "NUM_ARCH_REGS", "OPCODES", "STORE_OPS",
    "WORD_MASK", "Kind", "OpInfo", "to_signed", "to_unsigned",
    "alu_result", "branch_taken", "effective_address",
]
