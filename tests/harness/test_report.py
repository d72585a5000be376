"""Unit tests for report formatting."""

import math

from repro.harness.report import format_table, geomean, mean


def test_geomean_basic():
    assert math.isclose(geomean([1, 4]), 2.0)
    assert math.isclose(geomean([2, 2, 2]), 2.0)


def test_geomean_skips_nonpositive():
    assert math.isclose(geomean([0, 4, 4]), 4.0)
    assert geomean([]) == 0.0


def test_mean():
    assert mean([1, 2, 3]) == 2.0
    assert mean([]) == 0.0


def test_format_table_alignment():
    text = format_table(["name", "v"], [["a", 1.5], ["long-name", 20.25]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1]
    assert "1.50" in text and "20.25" in text
    # All data lines have the same width.
    widths = {len(line) for line in lines[2:]}
    assert len(widths) <= 2
