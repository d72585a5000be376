"""Unit tests for the attacker observation model."""

from repro.security.observer import (Observation, Observer, differing_events,
                                     traces_equal)


def test_events_recorded_in_order():
    observer = Observer()
    observer.load_access(1, 0x1000, "L1D")
    observer.store_address(2, 0x2000)
    observer.predictor_update(3, 7, True)
    observer.squash(4, 7)
    observer.store_write(5, 0x2000, "L1D")
    kinds = [e.kind for e in observer.events]
    assert kinds == ["load", "store-addr", "bp-update", "squash", "store-write"]


def test_lines_touched_includes_loads_and_store_writes():
    observer = Observer()
    observer.load_access(1, 0x1000, "L2")
    observer.store_write(2, 0x2000, "L1D")
    observer.store_address(3, 0x3000)
    assert observer.lines_touched() == {0x1000, 0x2000}
    assert observer.lines_touched("store-addr") == {0x3000}


def test_trace_equality():
    a, b = Observer(), Observer()
    a.load_access(1, 0x40, "L1D")
    b.load_access(1, 0x40, "L1D")
    assert traces_equal(a, b)
    b.load_access(2, 0x80, "L1D")
    assert not traces_equal(a, b)


def test_cycle_sensitivity():
    # Timing is part of the attacker's view: same events, different cycles
    # must be distinguishable.
    a, b = Observer(), Observer()
    a.load_access(1, 0x40, "L1D")
    b.load_access(2, 0x40, "L1D")
    assert not traces_equal(a, b)


def test_differing_events_finds_first_divergence():
    a, b = Observer(), Observer()
    a.load_access(1, 0x40, "L1D")
    a.load_access(2, 0x80, "L1D")
    b.load_access(1, 0x40, "L1D")
    b.load_access(2, 0xC0, "L1D")
    diffs = differing_events(a, b)
    assert diffs[0][0] == 1
    assert diffs[0][1].value == 0x80


def test_differing_events_reports_length_mismatch():
    a, b = Observer(), Observer()
    a.load_access(1, 0x40, "L1D")
    diffs = differing_events(a, b)
    assert diffs and diffs[0][1] == "length"


def test_observation_is_hashable():
    assert hash(Observation(1, "load", 0x40, "L1D")) is not None
