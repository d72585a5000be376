"""Verification targets: programs + where their secrets live.

A target couples a program builder with a :class:`SecretLayout` — the byte
ranges of initial memory that hold the secret — plus the documented
expectation (the constant-time kernels must verify ``safe``; the attack
gadgets must produce a leak witness).  The layouts mirror exactly what the
concrete security tests treat as secret:

* ``chacha20`` — key, counter and nonce words (``state_in`` words 4..15);
* ``aes-bitslice`` — all plaintext and key planes (``planes_in``);
* ``djbsort`` — the 16-word ``array`` being sorted;
* ``spectre-pht`` — the out-of-bounds byte behind ``victim_array``;
* ``nonspec-secret`` — the final (secret) entry of the ``values`` table.

The two gadget layouts read ``AttackProgram.secret_address``, which each
attack builder records where it allocates the secret byte.

Fuzz plans get the same treatment via :func:`plan_target`: the plan is
rendered once (the instruction stream and data addresses are
secret-independent by generator invariant) and the whole 64-byte secret
region becomes symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.isa.instructions import Program
from repro.security import attacks
from repro.verify.expr import var
from repro.verify.selfcomp import SET_ID, CheckResult, check_program
from repro.verify.symmem import SymMemory
from repro.workloads.crypto import aes_bitslice, chacha20, djbsort


@dataclass(frozen=True)
class SecretLayout:
    """Byte ranges of initial memory holding the secret."""

    ranges: tuple               # ((address, length), ...)

    def addressed_bytes(self):
        """Yields (secret byte index, memory address) pairs."""
        index = 0
        for address, length in self.ranges:
            for offset in range(length):
                yield index, address + offset
                index += 1


def make_symbolic_memory(program: Program, layout: SecretLayout,
                         set_id: str = SET_ID) -> SymMemory:
    """The program's initial memory with secret bytes as free variables."""
    memory = SymMemory(program.initial_memory)
    for index, address in layout.addressed_bytes():
        memory.store(address, var(set_id, index), 1)
    return memory


@dataclass(frozen=True)
class VerifyTarget:
    """A named verification subject with its documented expectation."""

    name: str
    description: str
    expected: str               # "safe" (constant-time) | "leak" (gadget)
    build: Callable             # scale -> (Program, SecretLayout)


def _chacha20(scale: int):
    program = chacha20.build(scale=scale)
    base = program.data_symbols["state_in"]
    # Words 0..3 are the public ChaCha constants; 4..11 key, 12 counter,
    # 13..15 nonce — all secret inputs per the kernel's contract.
    return program, SecretLayout(((base + 4 * 8, 12 * 8),))


def _aes_bitslice(scale: int):
    program = aes_bitslice.build(scale=scale)
    base = program.data_symbols["planes_in"]
    return program, SecretLayout(((base, 16 * 8),))


def _djbsort(scale: int):
    program = djbsort.build(scale=scale)
    base = program.data_symbols["array"]
    return program, SecretLayout(((base, djbsort.N * 8),))


def _attack_target(build: Callable) -> Callable:
    """A target builder for an attack gadget: its one secret byte, where
    the builder allocated it, is the secret (gadgets do not scale)."""
    def target(scale: int):
        attack = build()
        return attack.program, SecretLayout(((attack.secret_address, 1),))
    return target


TARGETS: dict = {
    "chacha20": VerifyTarget(
        "chacha20", "ChaCha20 keystream kernel (constant-time)", "safe",
        _chacha20),
    "aes-bitslice": VerifyTarget(
        "aes-bitslice", "bitsliced AES-style round kernel (constant-time)",
        "safe", _aes_bitslice),
    "djbsort": VerifyTarget(
        "djbsort", "constant-time Batcher sorting network", "safe",
        _djbsort),
    "spectre-pht": VerifyTarget(
        "spectre-pht", "bounds-check-bypass gadget (must leak)", "leak",
        _attack_target(attacks.spectre_v1)),
    "nonspec-secret": VerifyTarget(
        "nonspec-secret",
        "mis-trained indirect call over a non-speculative secret "
        "(must leak)", "leak", _attack_target(attacks.nonspec_secret)),
}


def verify_target(name: str, scale: int = 1, **bounds) -> CheckResult:
    """Check one named target; bounds kwargs override
    :func:`~repro.verify.selfcomp.check_program`'s defaults."""
    try:
        target = TARGETS[name]
    except KeyError:
        raise KeyError(f"unknown verify target {name!r}; "
                       f"known: {sorted(TARGETS)}") from None
    program, layout = target.build(scale)
    return check_program(program, make_symbolic_memory(program, layout),
                         **bounds)


def plan_target(plan) -> tuple:
    """(program, layout) for a fuzz plan, whole secret region symbolic."""
    from repro.fuzz.generator import SECRET_BYTES, render
    program = render(plan, secret=0)
    base = program.data_symbols["secret"]
    return program, SecretLayout(((base, SECRET_BYTES),))


def check_plan(plan, **bounds) -> CheckResult:
    """Self-composition check of one fuzz plan."""
    program, layout = plan_target(plan)
    return check_program(program, make_symbolic_memory(program, layout),
                         **bounds)
