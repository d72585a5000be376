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


def _tower(parts: list):
    """What a byte memory assembles from ``parts`` when no run of
    ``EXTRACT`` bytes folds back into one word."""
    value = 0
    for offset, byte in enumerate(parts):
        value = S.or_(value, S.sll(byte, 8 * offset))
    return value


def test_aligned_word_store_then_load_returns_the_stored_object():
    mem = SymMemory({0x40: 0xAB})
    word = S.mul(var(SET, 0), 0x0101010101010101)    # full 64-bit range
    for i in range(8):                      # bytes beneath the cell
        mem.store(0x40 + i, var(SET, i), 1)
    mem.store(0x40, word, 8)
    assert mem.load(0x40, 8) is word
    mem.store(0x48, 0x1122334455667788, 8)
    assert mem.load(0x48, 8) == 0x1122334455667788
    assert mem.load(0x44, 8) == _tower(         # unaligned: both spill
        [S.extract(word, i) for i in range(4, 8)] + [0x88, 0x77, 0x66, 0x55])


def test_byte_store_into_a_word_cell_reads_as_the_bytes_beneath():
    """After a 1-byte store into a word cell, every narrower or unaligned
    load reads exactly what a byte memory holding ``extract(word, i)``
    bytes reads."""
    mem = SymMemory()
    word = S.mul(var(SET, 0), 0x0101010101010101)
    mem.store(0x100, word, 8)
    mem.store(0x103, 0x77, 1)
    parts = [S.extract(word, i) for i in range(8)]
    parts[3] = 0x77
    for size in (1, 2, 4, 8):
        for address in range(0x100, 0x109 - size):
            got = mem.load(address, size)
            want = parts[address - 0x100:address - 0x100 + size]
            if size == 1:
                assert got == want[0]
            else:
                assert got == _tower(want), (address, size)
    assert mem.byte(0x102) == S.extract(word, 2)
    assert mem.byte(0x103) == 0x77


def test_assembled_word_is_cached_until_a_byte_changes():
    env = {(SET, i): 0x10 + i for i in range(8)}
    mem = SymMemory()
    for i in range(8):
        mem.store(0x40 + i, var(SET, i), 1)
    first = mem.load(0x40, 8)
    assert mem.load(0x40, 8) is first       # reloads share one term
    assert evaluate(first, env) == 0x1716151413121110
    mem.store(0x41, 0x05, 1)                # a byte store recomputes it
    second = mem.load(0x40, 8)
    assert second is not first
    assert evaluate(second, env) == 0x1716151413120510
    mem.begin_speculation()
    mem.store(0x42, 0, 1)
    transient = mem.load(0x40, 8)
    assert evaluate(transient, env) == 0x1716151413000510
    mem.rollback()                          # so does a rollback
    after = mem.load(0x40, 8)
    assert after is not transient and after == second
    assert evaluate(after, env) == 0x1716151413120510


def test_rollback_restores_and_outer_frame_keeps():
    mem = SymMemory({0x10: 1, 0x11: 2})
    mem.begin_speculation()
    mem.store(0x10, 0xFF, 1)                # overwrite
    mem.store(0x40, 0xEE, 1)                # fresh byte
    assert mem.byte(0x10) == 0xFF
    mem.begin_speculation()
    mem.store(0x10, 0xCC, 1)
    mem.rollback()                          # the inner squash keeps ...
    assert mem.byte(0x10) == 0xFF and mem.byte(0x40) == 0xEE
    mem.rollback()                          # ... what the outer one undoes
    assert mem.byte(0x10) == 1 and mem.byte(0x40) == 0
    assert mem.byte(0x11) == 2
    assert mem.speculation_depth == 0


def test_nested_rollback_propagates_to_outer_frame():
    """Each squash restores the memory its window started from: a nested
    window's rollback the outer window's view (word cells it spilled
    included), the outer window's rollback the architectural one."""
    mem = SymMemory({0x10: 1})
    word = S.mul(var(SET, 0), 0x0101010101010101)
    mem.begin_speculation()                 # outer
    mem.store(0x10, 5, 1)
    mem.store(0x18, word, 8)                # a word cell
    outer_view = [mem.load(0x10, 8), mem.load(0x18, 8)]
    mem.begin_speculation()                 # inner
    mem.store(0x10, 9, 8)
    mem.store(0x1A, 0x77, 1)                # spills the outer's word cell
    mem.store(0x20, 0xAA, 8)
    assert mem.byte(0x10) == 9 and mem.byte(0x1A) == 0x77
    mem.rollback()                          # inner squashes
    assert [mem.load(0x10, 8), mem.load(0x18, 8)] == outer_view
    assert mem.load(0x18, 8) is word and mem.load(0x20, 8) == 0
    mem.rollback()                          # outer squashes
    assert mem.load(0x10, 8) == 1 and mem.load(0x18, 8) == 0
    assert mem.speculation_depth == 0


def test_concretise_instantiates_secret_bytes():
    mem = SymMemory()
    mem.store(0x20, var(SET, 0), 1)
    mem.store(0x21, 7, 1)
    assert mem.concretise({(SET, 0): 0x44}) == {0x20: 0x44, 0x21: 7}


_ADDRESS = st.one_of(st.integers(min_value=0, max_value=48),
                     st.integers(min_value=0, max_value=6).map(
                         lambda word: 8 * word))         # aligned words
_ops = st.lists(
    st.tuples(st.sampled_from(["store", "store", "load", "load", "copy",
                               "begin", "rollback"]),
              _ADDRESS,
              st.sampled_from([1, 2, 4, 8, 8, 8]),      # size
              st.integers(min_value=0, max_value=WORD_MASK),
              st.booleans()),                          # symbolic value?
    min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(ops=_ops,
       secrets=st.lists(st.integers(min_value=0, max_value=255),
                        min_size=2, max_size=2))
def test_random_traffic_matches_reference_byte_model(ops, secrets):
    """Differential test against a plain {addr: byte} reference model
    with its own undo stack.

    Symbolic values are ``value ^ (secret expression)`` so stores mix int
    and Expr bytes freely; ``copy`` stores a loaded term back elsewhere
    (``value`` picks the destination), so word cells, spilled bytes and
    cached words meet; ``begin``/``rollback`` nest speculation frames.
    Every load, and the whole memory at the end, must evaluate (under the
    sampled secret) to exactly what the reference model holds.
    """
    env = {(SET, i): b for i, b in enumerate(secrets)}
    twist = S.xor(S.sll(var(SET, 0), 8), var(SET, 1))
    twist_value = evaluate(twist, env)
    mem, ref, undo = SymMemory(), {}, []

    def ref_load(address, size):
        return sum(ref.get((address + offset) & WORD_MASK, 0) << (8 * offset)
                   for offset in range(size))

    def ref_store(address, concrete, size):
        for offset in range(size):
            ref[(address + offset) & WORD_MASK] = \
                (concrete >> (8 * offset)) & 0xFF

    for kind, address, size, value, symbolic in ops:
        if kind == "begin":
            mem.begin_speculation()
            undo.append(dict(ref))
        elif kind == "rollback" and undo:
            mem.rollback()
            ref = undo.pop()
        elif kind == "store":
            term = S.xor(value, twist) if symbolic else value
            concrete = (value ^ twist_value) if symbolic else value
            mem.store(address, term, size)
            ref_store(address, concrete, size)
        elif kind == "copy":
            destination = 8 * (value % 7) if symbolic else value % 49
            mem.store(destination, mem.load(address, size), size)
            ref_store(destination, ref_load(address, size), size)
        elif kind == "load":
            assert evaluate(mem.load(address, size), env) == \
                ref_load(address, size)
    assert mem.speculation_depth == len(undo)
    final = {k: v for k, v in mem.concretise(env).items() if v}
    assert final == {k: v for k, v in ref.items() if v}
