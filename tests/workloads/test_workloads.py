"""Every registered workload must run correctly on every relevant engine."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core.attack_model import AttackModel
from repro.harness.configs import make_engine
from repro.workloads.registry import (CATEGORY_CT, CATEGORY_SPEC, WORKLOADS,
                                      ct_workloads, get, spec_workloads)

from tests.conftest import assert_matches_interpreter


def test_registry_is_complete():
    assert len(spec_workloads()) >= 15
    assert len(ct_workloads()) == 3
    names = set(WORKLOADS)
    assert {"perlbench", "gcc", "mcf", "omnetpp", "xalancbmk", "x264",
            "deepsjeng", "leela", "exchange2", "xz", "bwaves", "cactuBSSN",
            "namd", "parest", "povray", "fotonik3d", "lbm"} <= names
    assert {"aes-bitslice", "chacha20", "djbsort"} <= names


def test_get_unknown_raises():
    with pytest.raises(KeyError):
        get("nonexistent")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="VmHWM is read from Linux's /proc")
def test_registry_images_stay_compact():
    """Building the 20 registry programs in a fresh process raises its
    peak RSS by under 4 MiB: their 305,256 image bytes are held as byte
    segments (one dict entry per byte cost about 32 MiB).

    The peak is the process's own VmHWM: ``ru_maxrss`` of a child starts
    at its parent's RSS when spawned, which would hide the growth under
    the test runner's size."""
    code = textwrap.dedent("""
        from repro.workloads.registry import WORKLOADS

        def peak_kib():
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])

        before = peak_kib()
        programs = [workload.program(1) for workload in WORKLOADS.values()]
        print(len(programs), peak_kib() - before)
    """)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    built, grown_kib = map(int, out.stdout.split())
    assert built == 20
    assert grown_kib < 4 * 1024, f"registry builds grew peak RSS {grown_kib} KiB"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_interpreter_on_unsafe(name):
    program = get(name).program(scale=1)
    sim = assert_matches_interpreter(program, max_instructions=60_000)
    assert sim.retired > 100, "workload too small to be meaningful"


@pytest.mark.parametrize("name", ["mcf", "xz", "chacha20", "djbsort",
                                  "omnetpp"])
@pytest.mark.parametrize("config", ["SPT{Bwd,ShadowL1}", "STT",
                                    "SecureBaseline"])
def test_key_workloads_match_under_protection(name, config):
    program = get(name).program(scale=1)
    engine = make_engine(config, AttackModel.FUTURISTIC)
    assert_matches_interpreter(program, engine=engine,
                               max_instructions=8_000)


def test_scale_parameter_scales_work():
    small = get("mcf").program(scale=1)
    from repro.isa.interpreter import run_program
    r1 = run_program(small, max_instructions=200_000)
    r2 = run_program(get("mcf").program(scale=2), max_instructions=400_000)
    assert r2.retired > 1.5 * r1.retired


def test_categories():
    for workload in spec_workloads():
        assert workload.category == CATEGORY_SPEC
    for workload in ct_workloads():
        assert workload.category == CATEGORY_CT
