"""Tests for the ``repro check`` sweep command."""

from __future__ import annotations

import argparse

import pytest

from repro.check import cli, diff
from repro.check.cli import (SMOKE_BUDGET, SMOKE_CONFIGS, SMOKE_WORKLOADS,
                             check_counts, main)
from repro.core.spt import SPTEngine
from repro.harness.configs import CONFIGURATIONS, FULL_SPT, parse_workloads
from repro.obs.metrics import Metrics
from repro.pipeline.core import OoOCore
from repro.workloads.registry import WORKLOADS

from tests.check.test_mutations import mutated
from tests.fastpath.test_golden_record import GRIDS


def test_smoke_grid_is_well_formed():
    for name in SMOKE_WORKLOADS:
        assert name in WORKLOADS
    for name in SMOKE_CONFIGS:
        assert name in CONFIGURATIONS
    # CI holds the golden record's smoke cells to it: they are cells of
    # the smoke grid.
    workloads, configs, budget = GRIDS["smoke"]
    assert set(workloads) <= set(SMOKE_WORKLOADS)
    assert set(configs) <= set(SMOKE_CONFIGS)
    assert budget == SMOKE_BUDGET


def test_parse_configs_honours_braces(monkeypatch):
    seen = []

    def recording(fn, cells, jobs):
        seen.extend(cells)
        return [([], ({}, {}))] * len(cells)

    monkeypatch.setattr("repro.check.cli.fan_out", recording)
    assert main(["--workloads", "chacha20", "--models", "spectre",
                 "--configs", "STT,SPT{Bwd,ShadowL1}"]) == 0
    cell_a, cell_b, group = seen
    assert [cell_a.config, cell_b.config] == ["STT", "SPT{Bwd,ShadowL1}"]
    assert [spec.config for spec in group.specs] == \
        ["STT", "SPT{Bwd,ShadowL1}"]
    with pytest.raises(SystemExit):
        main(["--configs", "NotAConfig"])
    with pytest.raises(SystemExit):
        main(["--configs", ","])


def test_parse_workloads_rejects_unknown():
    assert parse_workloads("mcf,chacha20") == ["mcf", "chacha20"]
    with pytest.raises(argparse.ArgumentTypeError, match="quake3"):
        parse_workloads("quake3")
    with pytest.raises(argparse.ArgumentTypeError, match="selected nothing"):
        parse_workloads(" , ")


def test_check_counts_extraction():
    tree = Metrics("sim")
    passed = tree.child("check").child("passed")
    passed.set("pc-sequence", 7)
    passed.set("zero-reg", 3)
    assert check_counts(tree) == {"pc-sequence": 7, "zero-reg": 3}
    assert check_counts(Metrics("sim")) == {}


def report_rows(out: str) -> dict:
    """``{invariant: (default count, reference count)}`` of a report."""
    rows = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[1].isdigit() and fields[2].isdigit():
            rows[fields[0]] = (int(fields[1]), int(fields[2]))
    return rows


def test_single_cell_sweep_is_bit_identical(capsys):
    code = main(["--workloads", "chacha20", "--configs", "STT",
                 "--models", "spectre", "--budget", "300", "--jobs", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 cells x default and reference runs (budget 300): " \
           "bit-identical" in out
    rows = report_rows(out)
    # Retire-time invariants count in both columns, the window scans
    # only in the reference run's.
    assert rows["pc-sequence"][0] == rows["pc-sequence"][1] > 0
    assert rows["gated-transmitter"][0] == 0 < rows["gated-transmitter"][1]


def test_an_unsound_rule_stops_the_sweep_at_its_cell(monkeypatch, capsys):
    """The forward rule ignoring src2 on the packed engine: the reference
    run raises, the error names the cell, the run, the invariant and the
    cycle, and the serial sweep runs no later cell."""
    monkeypatch.setattr(SPTEngine, "_local_rules", mutated(
        SPTEngine, "_local_rules",
        "fwd = self._t_dst_m & self._pure_m & ~t_src1 & ~t_src2",
        "fwd = self._t_dst_m & self._pure_m & ~t_src1"))
    ran = []

    def recording(cell):
        ran.append(cell.workload)
        return diff_cell(cell)

    diff_cell = cli.diff_cell
    monkeypatch.setattr(cli, "diff_cell", recording)
    code = main(["--workloads", "gcc,mcf", "--configs", FULL_SPT,
                 "--models", "futuristic", "--budget", "500", "--jobs", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert ran == ["gcc"]
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "workload=gcc config=SPT{Bwd,ShadowL1} model=futuristic" \
        in errors[0]
    assert "the reference run raised InvariantViolation: " \
           "[spt-reference] cycle 5:" in errors[0]


def test_a_dropped_hold_replay_fails_every_cell(monkeypatch, capsys):
    """Fast-forward without the transmitter-hold replay: both runs finish,
    and every cell's default run differs from its reference run."""
    monkeypatch.setattr(OoOCore, "_quiet_jump", mutated(
        OoOCore, "_quiet_jump",
        "self._transmitters_delayed += delta * skipped", "pass"))
    code = main(["--workloads", "gcc,mcf", "--configs", FULL_SPT,
                 "--models", "futuristic", "--budget", "500", "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 1
    for workload in ("gcc", "mcf"):
        assert (f"MISMATCH {workload}/SPT{{Bwd,ShadowL1}}/futuristic:\n"
                "  metrics differ: protection.transmitters_delayed_cycles\n"
                ) in captured.err
    assert "2 cells x default and reference runs (budget 500): " \
           "2 DIVERGENT" in captured.out


def test_violation_fails_the_sweep(monkeypatch, capsys):
    """A squash that leaves its victims' RS entries taken: the default
    run's commit-level sanitizer raises, and the one error line names the
    default run, the invariant and the cycle."""
    original = OoOCore._squash_after

    def leaking(self, di):
        held = self._rs_count
        original(self, di)
        self._rs_count = held

    monkeypatch.setattr(OoOCore, "_squash_after", leaking)
    code = main(["--workloads", "mcf", "--configs", FULL_SPT,
                 "--models", "futuristic", "--budget", "500", "--jobs", "1"])
    err = capsys.readouterr().err
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "workload=mcf config=SPT{Bwd,ShadowL1} model=futuristic" \
        in errors[0]
    assert "the default run raised InvariantViolation: " \
           "[squash-complete] cycle 16:" in errors[0]


def test_a_grouped_run_that_differs_is_a_mismatch(monkeypatch, capsys):
    """A group runner that hands every member the first member's result:
    each cell's two runs agree, and the group cell alone is reported, one
    line per differing field of the member that got the wrong result."""
    simulate_group = diff.simulate_group

    def first_for_all(*args, **kwargs):
        run = simulate_group(*args, **kwargs)
        run.results = [run.results[0]] * len(run.results)
        return run

    monkeypatch.setattr(diff, "simulate_group", first_for_all)
    code = main(["--workloads", "mcf", "--configs", "UnsafeBaseline,STT",
                 "--models", "futuristic", "--budget", "500", "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.err.splitlines()
    assert lines[0] == "MISMATCH mcf/grouped/futuristic:"
    assert lines[1].startswith("  STT: cycles: separate=")
    assert all(line.startswith("  STT: ") for line in lines[1:])
    assert "2 cells x default and reference runs, 1 groups of 2 x grouped " \
           "and separate runs (budget 500): 1 DIVERGENT" in captured.out
