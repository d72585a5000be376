"""Micro-benchmarks of the simulator itself (throughput, engine overhead).

These use pytest-benchmark's statistics properly (multiple rounds) since
each run is short; they track how expensive each protection engine makes
simulation, which matters when scaling budgets up.
"""

import pytest

from repro.core.attack_model import AttackModel
from repro.harness.configs import make_engine
from repro.isa.interpreter import run_program
from repro.pipeline import OoOCore
from repro.pipeline.core import build_core
from repro.pipeline.params import MachineParams
from repro.workloads.registry import get

WORKLOAD = "xz"
BUDGET = 1500


def simulate(config: str) -> int:
    program = get(WORKLOAD).program(scale=1)
    engine = make_engine(config, AttackModel.FUTURISTIC)
    sim = OoOCore(program, engine=engine).run(max_instructions=BUDGET)
    return sim.cycles


def simulate_backend(config: str, backend: str) -> int:
    program = get(WORKLOAD).program(scale=1)
    engine = make_engine(config, AttackModel.FUTURISTIC)
    core = build_core(program, engine=engine,
                      params=MachineParams(backend=backend))
    return core.run(max_instructions=BUDGET).cycles


def test_interpreter_throughput(benchmark):
    program = get(WORKLOAD).program(scale=1)
    result = benchmark.pedantic(run_program, args=(program,),
                                kwargs={"max_instructions": BUDGET},
                                rounds=3, iterations=1)
    assert result.retired > 0


@pytest.mark.parametrize("config", ["UnsafeBaseline", "STT",
                                    "SPT{Bwd,ShadowL1}",
                                    "SPT{Ideal,ShadowMem}"])
def test_core_throughput(benchmark, config):
    cycles = benchmark.pedantic(simulate, args=(config,),
                                rounds=2, iterations=1)
    assert cycles > 0


@pytest.mark.parametrize("backend", ["reference", "vector"])
def test_spt_backend_throughput(benchmark, backend):
    # The same protected cell under both execution backends; the cycle
    # counts must agree exactly (bit-identity) while the vector backend's
    # wall-clock should sit well below the reference's.
    cycles = benchmark.pedantic(simulate_backend,
                                args=("SPT{Bwd,ShadowL1}", backend),
                                rounds=2, iterations=1)
    assert cycles == simulate("SPT{Bwd,ShadowL1}")
