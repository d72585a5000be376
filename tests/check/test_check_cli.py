"""Tests for the ``repro check`` sweep command."""

from __future__ import annotations

import pytest

from repro.check.cli import (SMOKE_CONFIGS, SMOKE_WORKLOADS, check_counts,
                             _parse_workloads, main)
from repro.harness.configs import CONFIGURATIONS
from repro.obs.metrics import Metrics
from repro.workloads.registry import WORKLOADS


def test_smoke_grid_is_well_formed():
    for name in SMOKE_WORKLOADS:
        assert name in WORKLOADS
    for name in SMOKE_CONFIGS:
        assert name in CONFIGURATIONS


def test_parse_configs_honours_braces(monkeypatch):
    seen = []

    def recording(specs, jobs=None, use_cache=None):
        seen.extend(spec.config for spec in specs)
        return []

    monkeypatch.setattr("repro.check.cli.run_many", recording)
    assert main(["--workloads", "chacha20", "--models", "spectre",
                 "--configs", "STT,SPT{Bwd,ShadowL1}"]) == 0
    assert seen == ["STT", "SPT{Bwd,ShadowL1}"]
    with pytest.raises(SystemExit):
        main(["--configs", "NotAConfig"])
    with pytest.raises(SystemExit):
        main(["--configs", ","])


def test_parse_workloads_rejects_unknown():
    assert _parse_workloads("mcf,chacha20") == ["mcf", "chacha20"]
    with pytest.raises(SystemExit):
        _parse_workloads("quake3")


def test_check_counts_extraction():
    tree = Metrics("sim")
    passed = tree.child("check").child("passed")
    passed.set("pc-sequence", 7)
    passed.set("zero-reg", 3)
    assert check_counts(tree) == {"pc-sequence": 7, "zero-reg": 3}
    assert check_counts(Metrics("sim")) == {}


def test_single_cell_sweep_passes(capsys):
    code = main(["--workloads", "chacha20", "--configs", "STT",
                 "--models", "spectre", "--budget", "300", "--jobs", "1",
                 "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 cells clean at check_level=full" in out
    assert "pc-sequence" in out and "gated-transmitter" in out


def test_violation_fails_the_sweep(capsys, monkeypatch):
    from repro.check.violation import InvariantViolation
    from repro.harness import parallel

    def exploding(specs, jobs=None, use_cache=None):
        raise parallel.RunFailure(
            specs[0], str(InvariantViolation("vp-frontier", 9, "boom")))

    monkeypatch.setattr("repro.check.cli.run_many", exploding)
    code = main(["--workloads", "chacha20", "--configs", "STT",
                 "--models", "spectre"])
    err = capsys.readouterr().err
    assert code == 1
    assert "INVARIANT VIOLATION" in err
    assert "vp-frontier" in err


def test_commit_level_sweep(capsys):
    code = main(["--workloads", "chacha20", "--configs", "UnsafeBaseline",
                 "--models", "spectre", "--level", "commit",
                 "--budget", "300", "--jobs", "1", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check_level=commit" in out
