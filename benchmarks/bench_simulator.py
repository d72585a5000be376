"""Micro-benchmarks of the simulator itself (throughput, engine overhead).

These use pytest-benchmark's statistics properly (multiple rounds) since
each run is short; they track how expensive each protection engine makes
simulation, which matters when scaling budgets up.
"""

import pytest

from repro.core.attack_model import AttackModel
from repro.fastpath.diff import reference_engine
from repro.harness.configs import make_engine
from repro.isa.interpreter import run_program
from repro.pipeline import OoOCore
from repro.pipeline.params import MachineParams
from repro.workloads.registry import get

WORKLOAD = "xz"
BUDGET = 1500


def simulate(config: str) -> int:
    program = get(WORKLOAD).program(scale=1)
    engine = make_engine(config, AttackModel.FUTURISTIC)
    sim = OoOCore(program, engine=engine).run(max_instructions=BUDGET)
    return sim.cycles


def simulate_reference(config: str) -> int:
    """The reference run: stepped mode under the full sanitizer."""
    program = get(WORKLOAD).program(scale=1)
    engine = reference_engine(make_engine(config, AttackModel.FUTURISTIC))
    core = OoOCore(program, engine=engine,
                   params=MachineParams(check_level="full"))
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


@pytest.mark.parametrize("run", ["default", "reference"])
def test_spt_run_throughput(benchmark, run):
    # The same protected cell as the default run and as the reference run;
    # the cycle counts must agree exactly (bit-identity) while the default
    # run's wall-clock should sit well below the reference run's.
    sim = simulate if run == "default" else simulate_reference
    cycles = benchmark.pedantic(sim, args=("SPT{Bwd,ShadowL1}",),
                                rounds=2, iterations=1)
    assert cycles == simulate("SPT{Bwd,ShadowL1}")
