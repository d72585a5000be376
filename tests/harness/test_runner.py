"""Unit tests for the experiment runner."""

import pytest

from repro.core.attack_model import AttackModel
from repro.harness.runner import (bench_budget, bench_scale, normalized_time,
                                  run_one)


def test_run_one_returns_populated_result():
    result = run_one("chacha20", "UnsafeBaseline", AttackModel.FUTURISTIC,
                     max_instructions=2000)
    assert result.cycles > 0
    assert result.retired > 0
    assert result.workload == "chacha20"
    assert result.config == "UnsafeBaseline"
    assert 0 < result.ipc <= 8


def test_run_one_spt_collects_untaint_stats():
    result = run_one("mcf", "SPT{Bwd,ShadowL1}", AttackModel.FUTURISTIC,
                     max_instructions=1500)
    # mcf definitely declassifies
    assert result.metrics.group("engine.untaint").get("total") > 0


def test_run_one_non_spt_has_no_untaint_stats():
    result = run_one("mcf", "STT", AttackModel.FUTURISTIC,
                     max_instructions=1500)
    assert result.metrics.group("engine.untaint") is None


def test_normalized_time_same_retired():
    base = run_one("djbsort", "UnsafeBaseline", max_instructions=1400)
    secure = run_one("djbsort", "SecureBaseline", AttackModel.FUTURISTIC,
                     max_instructions=1400)
    ratio = normalized_time(secure, base)
    assert ratio >= 1.0


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_BUDGET", "1234")
    monkeypatch.setenv("REPRO_BENCH_SCALE", "5")
    assert bench_budget() == 1234
    assert bench_scale() == 5


def test_env_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_BUDGET", raising=False)
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    assert bench_budget(777) == 777
    assert bench_scale() == 1


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        run_one("not-a-workload", "STT")


@pytest.mark.parametrize("name,reader", [
    ("REPRO_BENCH_BUDGET", bench_budget),
    ("REPRO_BENCH_SCALE", bench_scale),
])
def test_env_validation_names_the_variable(monkeypatch, name, reader):
    monkeypatch.setenv(name, "not-a-number")
    with pytest.raises(ValueError, match=name):
        reader()
    monkeypatch.setenv(name, "0")
    with pytest.raises(ValueError, match=name):
        reader()
    monkeypatch.setenv(name, "-3")
    with pytest.raises(ValueError, match=name):
        reader()
