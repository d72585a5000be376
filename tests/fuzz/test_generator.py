"""Generator invariants: determinism, halting, secret-independence."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.fuzz.generator import (PROFILES, SECRET_BYTES, Branch, Filler,
                                  FuzzPlan, Gadget, Loop, generate_plan,
                                  plan_from_json, plan_to_json, render,
                                  secret_pair, secret_region, workload_name)
from repro.fuzz.oracle import architectural_dependence
from repro.isa.interpreter import run_program
from repro.workloads import registry


def _program_digest(program) -> str:
    blob = json.dumps([[str(i) for i in program.instructions],
                       sorted(program.initial_memory.items())])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_plans_and_programs_are_deterministic():
    for seed in (0, 7):
        plan_a, plan_b = generate_plan(seed, "quick"), generate_plan(seed, "quick")
        assert plan_to_json(plan_a) == plan_to_json(plan_b)
        secret = secret_pair(seed)[0]
        assert (_program_digest(render(plan_a, secret))
                == _program_digest(render(plan_b, secret)))


def test_programs_identical_across_processes():
    """Two fresh interpreter processes must render byte-identical victims."""
    code = (
        "import hashlib, json;"
        "from repro.fuzz.generator import generate_plan, render, secret_pair;"
        "plan = generate_plan(7, 'quick');"
        "p = render(plan, secret_pair(7)[0]);"
        "blob = json.dumps([[str(i) for i in p.instructions],"
        " sorted(p.initial_memory.items())]);"
        "print(hashlib.sha256(blob.encode()).hexdigest())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONHASHSEED"] = "0"
    digests = set()
    for hashseed in ("1", "2"):       # different hash randomisation per run
        env["PYTHONHASHSEED"] = hashseed
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
    plan = generate_plan(7, "quick")
    local = _program_digest(render(plan, secret_pair(7)[0]))
    assert digests == {local}


def test_secret_pair_is_a_distinct_pair():
    for seed in range(20):
        a, b = secret_pair(seed)
        assert a != b
        assert secret_region(a) != secret_region(b)
        assert len(secret_region(a)) == SECRET_BYTES


def test_every_victim_halts_and_is_secret_independent():
    for seed in range(8):
        plan = generate_plan(seed, "quick")
        a, b = (render(plan, s) for s in secret_pair(seed))
        result = run_program(a, max_instructions=200_000)
        assert result.halted, f"seed {seed} did not halt"
        assert not architectural_dependence(a, b), (
            f"seed {seed}: committed path depends on the secret")


def test_profiles_change_program_shape():
    quick = render(generate_plan(3, "quick"), secret_pair(3)[0])
    deep = render(generate_plan(3, "deep"), secret_pair(3)[0])
    assert len(deep.instructions) > len(quick.instructions)
    assert set(PROFILES) >= {"default", "quick", "deep"}


def test_plan_json_round_trip():
    plan = generate_plan(5, "default")
    rebuilt = plan_from_json(plan_to_json(plan))
    assert plan_to_json(rebuilt) == plan_to_json(plan)
    secret = secret_pair(5)[0]
    assert (_program_digest(render(rebuilt, secret))
            == _program_digest(render(plan, secret)))


def test_plan_json_format_is_pinned():
    """The on-disk plan format: corpora store it and ``verify plan-file``
    reads it, so its keys, their order and the branch arms' "then"/"else"
    names must not drift."""
    alu = ("ALU", "ADD", "s4", "s5", "a6")
    mem = ("MEM", "LD", "s10", "s11", 8)
    plan = FuzzPlan(3, "quick", (
        Filler((alu,)),
        Loop(2, (mem,)),
        Branch("BLT", "a6", "a7", (alu,), (mem, alu)),
        Gadget("speculative", "line", 2, 8, 4, 17, 6)))
    expected = (
        '{"seed": 3, "profile": "quick", "blocks": ['
        '{"type": "filler", "instrs": [["ALU", "ADD", "s4", "s5", "a6"]]}, '
        '{"type": "loop", "count": 2, '
        '"instrs": [["MEM", "LD", "s10", "s11", 8]]}, '
        '{"type": "branch", "op": "BLT", "rs1": "a6", "rs2": "a7", '
        '"then": [["ALU", "ADD", "s4", "s5", "a6"]], '
        '"else": [["MEM", "LD", "s10", "s11", 8], '
        '["ALU", "ADD", "s4", "s5", "a6"]]}, '
        '{"type": "gadget", "exposure": "speculative", "transmit": "line", '
        '"trainings": 2, "widen": 8, "in_bounds": 4, "secret_index": 17, '
        '"shift": 6}]}')
    assert json.dumps(plan_to_json(plan)) == expected
    assert plan_from_json(json.loads(expected)) == plan
    with pytest.raises(ValueError, match="unknown block type"):
        plan_from_json({"seed": 3, "profile": "quick",
                        "blocks": [{"type": "nope"}]})


def test_registry_resolves_fuzz_workloads():
    secret = secret_pair(4)[0]
    name = workload_name("quick", 4, secret)
    workload = registry.get(name)
    assert workload.name == name
    program = workload.program()
    assert (_program_digest(program)
            == _program_digest(render(generate_plan(4, "quick"), secret)))


def test_registry_still_rejects_unknown_names():
    with pytest.raises(KeyError):
        registry.get("no-such-workload")
    with pytest.raises(KeyError):
        registry.get("fuzz:quick:not-a-seed:beef")
