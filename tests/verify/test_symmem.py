"""Unit and property tests for the symbolic byte memory."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import WORD_MASK
from repro.verify.expr import SymbolicDomain as S, evaluate, var
from repro.verify.symmem import SymMemory

SET = "S"


def test_concrete_little_endian_round_trip():
    mem = SymMemory()
    mem.store(0x100, 0x1122334455667788, 8)
    assert mem.load(0x100, 8) == 0x1122334455667788
    assert mem.load(0x100, 1) == 0x88
    assert mem.load(0x107, 1) == 0x11
    assert mem.load(0x104, 4) == 0x11223344
    assert mem.load(0x500, 8) == 0          # absent bytes read as zero


def test_address_wraps_like_archstate():
    mem = SymMemory()
    mem.store(WORD_MASK, 0xABCD, 2)
    assert mem.byte(WORD_MASK) == 0xCD
    assert mem.byte(0) == 0xAB
    assert mem.load(WORD_MASK, 2) == 0xABCD


def test_symbolic_word_reassembles_to_same_term():
    """Store a symbolic word, load it back: the *same* node must return,
    or spilled secrets would become opaque and ``x ^ x`` would stop
    folding across a memory round trip."""
    mem = SymMemory()
    word = S.add(S.sll(var(SET, 0), 8), var(SET, 1))
    mem.store(0x200, word, 8)
    assert mem.load(0x200, 8) is word
    # A bounded word stored narrow reads back identically too.
    assert mem.load(0x200, 4) is word       # hi < 2**32


def test_single_symbolic_byte_round_trip():
    mem = SymMemory()
    s = var(SET, 3)
    mem.store(0x80, s, 1)
    assert mem.load(0x80, 1) is s
    loaded = mem.load(0x80, 8)              # widened: still evaluates right
    assert evaluate(loaded, {(SET, 3): 0x5A}) == 0x5A


def test_partial_overwrite_still_evaluates_correctly():
    mem = SymMemory()
    word = S.mul(var(SET, 0), 0x101)        # symbolic, hi > one byte
    mem.store(0x300, word, 8)
    mem.store(0x303, 0x77, 1)               # clobber one middle byte
    env = {(SET, 0): 0xAB}
    expected = (evaluate(word, env) & ~(0xFF << 24)) | (0x77 << 24)
    assert evaluate(mem.load(0x300, 8), env) == expected & WORD_MASK


def test_rollback_restores_and_commit_keeps():
    mem = SymMemory({0x10: 1, 0x11: 2})
    mem.begin_speculation()
    mem.store(0x10, 0xFF, 1)                # overwrite
    mem.store(0x40, 0xEE, 1)                # fresh byte
    assert mem.byte(0x10) == 0xFF
    mem.rollback()
    assert mem.byte(0x10) == 1 and mem.byte(0x40) == 0
    mem.begin_speculation()
    mem.store(0x10, 0xCC, 1)
    mem.commit()
    assert mem.byte(0x10) == 0xCC
    assert mem.speculation_depth == 0


def test_nested_rollback_propagates_to_outer_frame():
    """A nested window's writes must be undone when the *outer* window
    squashes, even though the inner frame already popped."""
    mem = SymMemory({0x10: 1})
    mem.begin_speculation()                 # outer
    mem.begin_speculation()                 # inner
    mem.store(0x10, 9, 1)
    mem.commit()                            # inner commits its write
    assert mem.byte(0x10) == 9
    mem.rollback()                          # outer squashes
    assert mem.byte(0x10) == 1


def test_concretise_instantiates_secret_bytes():
    mem = SymMemory()
    mem.store(0x20, var(SET, 0), 1)
    mem.store(0x21, 7, 1)
    assert mem.concretise({(SET, 0): 0x44}) == {0x20: 0x44, 0x21: 7}


_ops = st.lists(
    st.tuples(st.booleans(),                          # store?
              st.integers(min_value=0, max_value=48),  # address
              st.sampled_from([1, 2, 4, 8]),           # size
              st.integers(min_value=0, max_value=WORD_MASK),
              st.booleans()),                          # symbolic value?
    min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(ops=_ops,
       secrets=st.lists(st.integers(min_value=0, max_value=255),
                        min_size=2, max_size=2))
def test_random_traffic_matches_reference_byte_model(ops, secrets):
    """Differential test against a plain {addr: byte} reference model.

    Symbolic values are ``value ^ (secret expression)`` so stores mix int
    and Expr bytes freely; every load must evaluate (under the sampled
    secret) to exactly what the reference model holds.
    """
    env = {(SET, i): b for i, b in enumerate(secrets)}
    twist = S.xor(S.sll(var(SET, 0), 8), var(SET, 1))
    twist_value = evaluate(twist, env)
    mem, ref = SymMemory(), {}
    for is_store, address, size, value, symbolic in ops:
        if is_store:
            term = S.xor(value, twist) if symbolic else value
            concrete = (value ^ twist_value) if symbolic else value
            mem.store(address, term, size)
            for offset in range(size):
                ref[(address + offset) & WORD_MASK] = \
                    (concrete >> (8 * offset)) & 0xFF
        else:
            expect = 0
            for offset in range(size):
                expect |= ref.get((address + offset) & WORD_MASK,
                                  0) << (8 * offset)
            assert evaluate(mem.load(address, size), env) == expect
