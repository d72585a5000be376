"""Unit tests for the shadow L1 / shadow memory taint structure."""


from repro.core.shadow_l1 import ShadowMode, ShadowTaint


def test_everything_starts_tainted():
    shadow = ShadowTaint(ShadowMode.L1)
    assert shadow.range_tainted(0x1000, 8)
    assert shadow.range_tainted(0, 1)


def test_store_clears_exactly_the_written_bytes():
    shadow = ShadowTaint(ShadowMode.L1)
    shadow.set_range(0x1008, 8, tainted=False)
    assert not shadow.range_tainted(0x1008, 8)
    assert shadow.range_tainted(0x1000, 8)       # bytes before
    assert shadow.range_tainted(0x1010, 8)       # bytes after
    assert shadow.range_tainted(0x1004, 8)       # straddling the boundary


def test_byte_granularity():
    shadow = ShadowTaint(ShadowMode.L1)
    shadow.set_range(0x2000, 1, tainted=False)
    assert not shadow.range_tainted(0x2000, 1)
    assert shadow.range_tainted(0x2001, 1)
    assert shadow.range_tainted(0x2000, 2)


def test_tainted_store_retaints():
    shadow = ShadowTaint(ShadowMode.L1)
    shadow.set_range(0x3000, 8, tainted=False)
    shadow.set_range(0x3000, 4, tainted=True)
    assert shadow.range_tainted(0x3000, 4)
    assert not shadow.range_tainted(0x3004, 4)


def test_line_straddling_access():
    shadow = ShadowTaint(ShadowMode.L1, line_bytes=64)
    shadow.set_range(0x103C, 8, tainted=False)   # crosses 0x1040 boundary
    assert not shadow.range_tainted(0x103C, 8)
    assert shadow.range_tainted(0x1038, 4)
    assert shadow.range_tainted(0x1044, 4)


def test_eviction_retaints_in_l1_mode():
    shadow = ShadowTaint(ShadowMode.L1)
    shadow.set_range(0x1000, 64, tainted=False)
    shadow.invalidate_line(0x1000)
    assert shadow.range_tainted(0x1000, 8)


def test_eviction_is_ignored_in_full_memory_mode():
    shadow = ShadowTaint(ShadowMode.FULL_MEMORY)
    shadow.set_range(0x1000, 64, tainted=False)
    shadow.invalidate_line(0x1000)
    assert not shadow.range_tainted(0x1000, 8)


def test_none_mode_is_always_tainted():
    shadow = ShadowTaint(ShadowMode.NONE)
    shadow.set_range(0x1000, 64, tainted=False)
    assert shadow.range_tainted(0x1000, 8)


def test_resident_untainted_bytes_diagnostic():
    shadow = ShadowTaint(ShadowMode.L1)
    assert shadow.resident_untainted_bytes() == 0
    shadow.set_range(0x1000, 16, tainted=False)
    assert shadow.resident_untainted_bytes() == 16
