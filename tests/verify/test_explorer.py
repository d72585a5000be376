"""Unit tests for the always-mispredict symbolic explorer.

Each test builds a tiny program with the ISA builder, marks a small secret
region symbolic, and checks the explorer's verdict, witness shape, and —
most importantly — that transient windows roll *all* architectural effects
back while keeping their observations.
"""

from repro.isa.builder import ProgramBuilder
from repro.verify.explorer import (OBS_BRANCH, OBS_LOAD_LINE,
                                   OBS_STORE_LINE, SpeculativeExplorer)
from repro.verify.selfcomp import SET_ID, check_program, reflexive_check
from repro.verify.targets import SecretLayout, make_symbolic_memory


def _scaffold():
    """Builder with a one-byte secret and a 64-byte-aligned probe array."""
    b = ProgramBuilder("explorer-case", data_base=0x1000)
    secret = b.alloc_bytes("secret", [0], align=64)
    probe = b.reserve("probe", 512, align=64)
    return b, secret, probe


def _explore(b, secret, **bounds):
    program = b.build()
    memory = make_symbolic_memory(program, SecretLayout(((secret, 1),)))
    return SpeculativeExplorer(program, memory, **bounds).run()


def test_straight_line_public_program_is_safe():
    b, secret, probe = _scaffold()
    b.li("a0", 5)
    b.addi("a0", "a0", 37)
    b.li("a1", probe)
    b.sd("a0", "a1", 0)
    b.halt()
    result = _explore(b, secret)
    assert result.verdict == "safe" and result.complete and result.halted


def test_architectural_secret_indexed_load_leaks():
    b, secret, probe = _scaffold()
    b.li("a0", secret)
    b.lb("a1", "a0", 0)                     # a1 = secret byte
    b.li("a2", probe)
    b.add("a2", "a2", "a1")
    b.lb("a3", "a2", 0)                     # probe[secret]: 4 lines reachable
    b.halt()
    result = _explore(b, secret)
    assert result.verdict == "leak"
    leak = result.leaks[0]
    assert leak.kind == OBS_LOAD_LINE and leak.depth == 0
    assert leak.secret == (0,)


def test_line_confined_access_is_not_a_cache_leak():
    """probe[secret & 0x3F] with a 64-aligned probe stays in one line —
    the interval fold must prove the line concrete, no leak."""
    b, secret, probe = _scaffold()
    b.li("a0", secret)
    b.lb("a1", "a0", 0)
    b.andi("a1", "a1", 0x3F)
    b.li("a2", probe)
    b.add("a2", "a2", "a1")
    b.lb("a3", "a2", 0)
    b.halt()
    result = _explore(b, secret)
    assert result.verdict == "safe" and result.complete


def test_storing_the_secret_value_is_safe():
    """Store *values* are invisible to the concrete observer (it records
    line and hit level only), so the symbolic checker must agree."""
    b, secret, probe = _scaffold()
    b.li("a0", secret)
    b.lb("a1", "a0", 0)
    b.li("a2", probe)
    b.sd("a1", "a2", 0)                     # secret value, public address
    b.halt()
    result = _explore(b, secret)
    assert result.verdict == "safe" and result.complete


def test_secret_branch_and_store_address_leak():
    b, secret, probe = _scaffold()
    b.li("a0", secret)
    b.lb("a1", "a0", 0)
    done = b.forward_label()
    b.bne("a1", "zero", done)               # branch outcome = secret
    b.li("a2", probe)
    b.add("a2", "a2", "a1")
    b.sb("a1", "a2", 0)                     # store line = secret
    b.place(done)
    b.halt()
    result = _explore(b, secret)
    kinds = {leak.kind for leak in result.leaks}
    assert OBS_BRANCH in kinds and OBS_STORE_LINE in kinds


def test_transient_window_rolls_back_registers_and_memory():
    """The wrong path of an always-taken branch clobbers a register and a
    memory word; after the squash, the architectural path must see the
    original values — and the transient leak observation must survive."""
    b, secret, probe = _scaffold()
    b.li("a0", secret)
    b.lb("a1", "a0", 0)
    b.li("a4", 0x1234)
    b.li("a5", probe)
    b.sd("a4", "a5", 0)
    skip = b.forward_label()
    b.beq("zero", "zero", skip)             # architecturally always taken
    # -- wrong path only --
    b.li("a4", 0xDEAD)                      # clobber a register
    b.sd("zero", "a5", 0)                   # clobber committed memory
    b.add("a6", "a5", "a1")
    b.lb("a7", "a6", 0)                     # transient secret-indexed load
    b.place(skip)
    b.ld("a3", "a5", 0)                     # reload the committed word
    b.halt()
    program = b.build()
    memory = make_symbolic_memory(program, SecretLayout(((secret, 1),)))
    explorer = SpeculativeExplorer(program, memory)
    result = explorer.run()
    assert result.verdict == "leak"
    leak = result.leaks[0]
    assert leak.kind == OBS_LOAD_LINE and leak.depth == 1 \
        and leak.secret == (0,)
    # Architectural state is untouched by the squashed window.
    assert explorer.regs[14] == 0x1234                  # a4
    assert explorer.regs[13] == 0x1234                  # a3: reloaded word
    assert memory.load(probe, 8) == 0x1234
    assert memory.speculation_depth == 0


def test_spec_depth_zero_disables_transient_exploration():
    b, secret, probe = _scaffold()
    b.li("a0", secret)
    b.lb("a1", "a0", 0)
    skip = b.forward_label()
    b.beq("zero", "zero", skip)
    b.li("a2", probe)
    b.add("a2", "a2", "a1")
    b.lb("a3", "a2", 0)
    b.place(skip)
    b.halt()
    assert _explore(b, secret, spec_depth=0).verdict == "safe"
    assert _explore(b, secret, spec_depth=1).verdict == "leak"


def test_spec_window_bounds_the_transient_reach():
    """The transient gadget sits several instructions into the wrong path:
    a 2-instruction window cannot reach it, the default window can."""
    b, secret, probe = _scaffold()
    b.li("a0", secret)
    b.lb("a1", "a0", 0)
    skip = b.forward_label()
    b.beq("zero", "zero", skip)
    b.nop()
    b.nop()
    b.nop()
    b.li("a2", probe)
    b.add("a2", "a2", "a1")
    b.lb("a3", "a2", 0)                     # 6 instructions into the window
    b.place(skip)
    b.halt()
    assert _explore(b, secret, spec_window=2).verdict == "safe"
    assert _explore(b, secret, spec_window=8).verdict == "leak"


def test_jalr_explores_previously_seen_targets():
    """Within-run BTB mistraining: the indirect call is first *trained* on
    a probe gadget with a public (zero) index, then the secret-laden round
    dispatches to a safe handler — architecturally the secret never reaches
    the gadget, but the explorer replays the previously-seen target
    transiently and the gadget leaks at depth 1 (the nonspec-secret
    shape)."""
    b, secret, probe = _scaffold()
    table = b.reserve("table", 16, align=8)

    # Handler PCs are computed at runtime from a JAL link register so the
    # test doesn't hard-code absolute instruction indices (they are
    # self-checked against the built program below).
    b.jal("t1", "anchor")
    b.place("anchor")                       # t1 = pc of 'anchor'
    b.li("a5", table)
    b.addi("t2", "t1", 19)                  # pc of f_safe   (anchor + 19)
    b.sd("t2", "a5", 0)                     # table[0]: secret round
    b.addi("t2", "t1", 21)                  # pc of f_gadget (anchor + 21)
    b.sd("t2", "a5", 8)                     # table[1]: training round
    b.li("a6", probe)
    b.li("a4", 1)

    b.li("t0", 2)                           # two dispatch rounds
    loop = b.label("dispatch")
    b.addi("t0", "t0", -1 & ((1 << 64) - 1))
    b.slli("t3", "t0", 3)                   # round 1 -> gadget, 0 -> safe
    b.add("t3", "t3", "a5")
    b.ld("t4", "t3", 0)
    b.li("a0", secret)
    b.lb("a1", "a0", 0)
    b.sltu("t5", "t0", "a4")                # 1 only on the final round
    b.mul("a1", "a1", "t5")                 # a1 = secret iff final round
    b.jalr("ra", "t4", 0)                   # the single static call site
    b.bne("t0", "zero", loop)
    b.beq("zero", "zero", "end")
    b.place("f_safe")                       # anchor + 19
    b.nop()
    b.jalr("zero", "ra", 0)
    b.place("f_gadget")                     # anchor + 21
    b.add("a2", "a6", "a1")
    b.lb("a3", "a2", 0)                     # probe[a1]
    b.jalr("zero", "ra", 0)
    b.place("end")
    b.halt()

    program = b.build()
    # Self-check the hand-computed handler offsets before relying on them.
    anchor = next(i for i, inst in enumerate(program.instructions)
                  if inst.op == "JAL") + 1
    names = [inst.op for inst in program.instructions]
    assert names[anchor + 19] == "NOP"          # f_safe
    assert names[anchor + 21] == "ADD"          # f_gadget
    memory = make_symbolic_memory(program, SecretLayout(((secret, 1),)))
    result = SpeculativeExplorer(program, memory).run()
    assert result.verdict == "leak"
    # Architecturally the gadget only ever sees a1 = 0; the leak is purely
    # transient, via the trained alternate target.
    assert all(leak.depth == 1 for leak in result.leaks)
    assert any(leak.kind == OBS_LOAD_LINE and leak.secret == (0,)
               for leak in result.leaks)


def test_budget_exhaustion_yields_unknown_not_safe():
    b, secret, probe = _scaffold()
    b.li("a0", 0)
    with b.loop(count=1000, counter="t0"):
        b.addi("a0", "a0", 1)
    b.halt()
    result = _explore(b, secret, max_instructions=50)
    assert result.verdict == "unknown"
    assert not result.complete and not result.halted


def test_check_program_confirms_witness_with_secret_pair():
    b, secret, probe = _scaffold()
    b.li("a0", secret)
    b.lb("a1", "a0", 0)
    b.li("a2", probe)
    b.add("a2", "a2", "a1")
    b.lb("a3", "a2", 0)
    b.halt()
    program = b.build()
    layout = SecretLayout(((secret, 1),))
    result = check_program(program, make_symbolic_memory(program, layout))
    assert result.verdict == "leak"
    witness = result.witnesses[0]
    assert witness.confirmed
    assert witness.secret == (0,)
    assert witness.secret_a != witness.secret_b
    assert witness.value_a != witness.value_b
    # The two sides of the self-composition carry distinct variable sets.
    assert "A[0]" in witness.expression_a
    assert "B[0]" in witness.expression_b


def test_reflexive_check_never_leaks():
    """Self-composition is reflexive: with the secret fixed (both runs see
    the same concrete bytes) even the leaky gadget must verify safe."""
    b, secret, probe = _scaffold()
    b.li("a0", secret)
    b.lb("a1", "a0", 0)
    b.li("a2", probe)
    b.add("a2", "a2", "a1")
    b.lb("a3", "a2", 0)
    b.halt()
    program = b.build()
    layout = SecretLayout(((secret, 1),))
    result = reflexive_check(program,
                             make_symbolic_memory(program, layout))
    assert result.verdict == "safe" and result.complete


def test_check_program_leaves_its_memory_as_it_was():
    """The check explores a copy: the prepared memory keeps its secret
    bytes, so it can be checked again (here at other bounds) from the
    same initial state."""
    b, secret, probe = _scaffold()
    b.li("a0", secret)
    b.lb("a1", "a0", 0)
    b.li("a2", probe)
    b.sd("a1", "a2", 0)                     # overwrite the probe word
    b.sb("zero", "a0", 0)                   # and the secret byte
    b.halt()
    program = b.build()
    memory = make_symbolic_memory(program, SecretLayout(((secret, 1),)))
    before = memory.concretise({(SET_ID, 0): 7})
    first = check_program(program, memory)
    assert memory.concretise({(SET_ID, 0): 7}) == before
    assert memory.load(probe, 8) == 0
    again = check_program(program, memory)
    assert again.to_json() == first.to_json()
