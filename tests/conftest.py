"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.attack_model import AttackModel
from repro.isa.interpreter import run_program
from repro.pipeline.core import OoOCore
from repro.pipeline.params import MachineParams


BOTH_MODELS = [AttackModel.SPECTRE, AttackModel.FUTURISTIC]
RUNS = ["default", "checked"]


def run_params(run: str) -> MachineParams:
    """Parameters of the default run (fast-forward live) or the checked
    run (stepped mode under the full sanitizer, same engine)."""
    return MachineParams(check_level="full" if run == "checked" else "off")


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the persistent result cache at a per-test directory.

    Keeps the suite from reading (or polluting) the user's real
    ``~/.cache/repro`` while still exercising the cache code paths.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def run_modes(monkeypatch) -> list:
    """Whether each ``OoOCore.run`` call ran in stepped mode (True) or
    with the default fast-forward (False), so a test can prove which."""
    modes: list = []
    real = OoOCore.run

    def spy(core, *args, **kwargs):
        try:
            return real(core, *args, **kwargs)
        finally:
            modes.append(core._stepped)

    monkeypatch.setattr(OoOCore, "run", spy)
    return modes


@pytest.fixture
def small_params() -> MachineParams:
    """A small machine for fast unit tests."""
    return MachineParams(rob_entries=64, rs_entries=32, num_phys_regs=128,
                         lq_entries=16, sq_entries=16)


def assert_matches_interpreter(program, engine=None, params=None,
                               max_instructions=200_000):
    """Run a program on the OoO core and the golden interpreter; compare.

    Returns the SimResult for further assertions.
    """
    ref = run_program(program, max_instructions=max_instructions)
    core = OoOCore(program, engine=engine, params=params)
    sim = core.run(max_instructions=max_instructions + 1000)
    assert sim.halted == ref.halted, (
        f"halt mismatch: interp={ref.halted} sim={sim.halted}")
    for index in range(32):
        assert sim.reg(index) == ref.state.read_reg(index), (
            f"x{index}: interp={ref.state.read_reg(index):#x} "
            f"sim={sim.reg(index):#x}")
    mem_ref = {a: v for a, v in ref.state.memory.items() if v}
    assert sim.memory.snapshot() == mem_ref, "memory image mismatch"
    assert sim.retired == ref.retired
    return sim


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", default=False,
                     help="run slow end-to-end sweeps")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end test")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)
