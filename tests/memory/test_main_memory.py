"""Unit and property tests for the flat backing store."""

from hypothesis import given
from hypothesis import strategies as st

from repro.memory.main_memory import MainMemory, uninit_byte
from repro.pipeline.core import OoOCore
from repro.workloads.registry import get as get_workload

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
addr = st.integers(min_value=0, max_value=1 << 20)
size = st.sampled_from([1, 2, 4, 8])


def test_uninitialised_reads_zero():
    assert MainMemory().load(0x1234, 8) == 0


def test_image_constructor():
    memory = MainMemory({0x10: 0xAB})
    assert memory.load(0x10, 1) == 0xAB


@given(address=addr, value=u64, access=size)
def test_store_load_roundtrip(address, value, access):
    memory = MainMemory()
    memory.store(address, value, access)
    mask = (1 << (8 * access)) - 1
    assert memory.load(address, access) == value & mask


@given(address=addr, value=u64)
def test_little_endian_composition(address, value):
    memory = MainMemory()
    memory.store(address, value, 8)
    composed = 0
    for offset in range(8):
        composed |= memory.load(address + offset, 1) << (8 * offset)
    assert composed == value


@given(address=addr, first=u64, second=u64)
def test_partial_overwrite(address, first, second):
    memory = MainMemory()
    memory.store(address, first, 8)
    memory.store(address + 2, second, 2)
    expected = (first & ~(0xFFFF << 16)) | ((second & 0xFFFF) << 16)
    assert memory.load(address, 8) == expected


def test_snapshot_drops_zero_bytes():
    memory = MainMemory()
    memory.store(0x100, 0x00FF, 2)
    assert memory.snapshot() == {0x100: 0xFF}


# ------------------------------------------------------- the shared image
# A memory reads its program's image in place and sends stores to its own
# overlay; the image itself is never written.

def test_store_over_image_byte_wins():
    image = {0x10: 0xAB}
    memory = MainMemory(image)
    memory.store(0x10, 0x00, 1)
    assert memory.load(0x10, 1) == 0
    assert image == {0x10: 0xAB}


@given(address=addr, first=u64, second=u64)
def test_partial_overwrite_over_image_bytes(address, first, second):
    image = {address + offset: (first >> (8 * offset)) & 0xFF
             for offset in range(8)}
    original = dict(image)
    memory = MainMemory(image)
    memory.store(address + 2, second, 2)
    expected = (first & ~(0xFFFF << 16)) | ((second & 0xFFFF) << 16)
    assert memory.load(address, 8) == expected
    assert image == original


def test_uninit_seed_reads_image_bytes_from_the_image():
    seed = 7
    memory = MainMemory({0x100: 0x5A, 0x101: 0x00}, uninit_seed=seed)
    assert memory.load(0x100, 1) == 0x5A
    assert memory.load(0x101, 1) == 0x00      # a zero in the image is set
    assert memory.load(0x102, 1) == uninit_byte(seed, 0x102)
    memory.store(0x102, 0x11, 1)
    assert memory.load(0x100, 4) == (
        0x5A | 0x11 << 16 | uninit_byte(seed, 0x103) << 24)


def test_snapshot_merges_stores_over_the_image():
    memory = MainMemory({0x10: 1, 0x11: 2, 0x12: 0})
    memory.store(0x11, 0, 1)
    memory.store(0x20, 9, 1)
    assert memory.snapshot() == {0x10: 1, 0x20: 9}


def test_core_never_writes_its_programs_image():
    program = get_workload("mcf").program()
    before = dict(program.initial_memory)
    first = OoOCore(program).run(max_instructions=3000)
    second = OoOCore(program).run(max_instructions=3000)
    assert program.initial_memory == before
    assert first.memory.snapshot() != before, "mcf stored nothing"
    assert first.memory.snapshot() == second.memory.snapshot()
    assert (first.cycles, first.retired, first.arch_regs,
            first.metrics.flatten()) == \
        (second.cycles, second.retired, second.arch_regs,
         second.metrics.flatten())
    assert first.observer.events == second.observer.events
