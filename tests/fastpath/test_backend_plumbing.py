"""Backend selection plumbing: params validation, caching, pickling, deps."""

import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.core.attack_model import AttackModel
from repro.fastpath import deps
from repro.harness import cache
from repro.harness.parallel import RunSpec, run_many
from repro.pipeline.core import OoOCore, build_core
from repro.pipeline.params import MachineParams
from repro.workloads.registry import get as get_workload


def test_unknown_backend_is_rejected_by_name():
    with pytest.raises(ValueError, match="warp"):
        MachineParams(backend="warp").validate()


def test_build_core_selects_backend():
    from repro.fastpath.vector_core import VectorCore
    program = get_workload("chacha20").program(1)
    assert type(build_core(program)) is OoOCore
    assert type(build_core(
        program, params=MachineParams(backend="vector"))) is VectorCore


def test_vector_core_wraps_spt_engine():
    from repro.core.spt import SPTEngine
    from repro.fastpath.spt_vector import VectorSPTEngine
    from repro.harness.configs import make_engine
    program = get_workload("chacha20").program(1)
    engine = make_engine("SPT{Bwd,ShadowL1}", AttackModel.FUTURISTIC)
    core = build_core(program, engine=engine,
                      params=MachineParams(backend="vector"))
    assert type(core.engine) is VectorSPTEngine
    assert isinstance(core.engine, SPTEngine)
    assert core.engine.backward == engine.backward
    assert core.engine.shadow_mode == engine.shadow_mode


def test_cache_version_covers_backend_field():
    # The backend rides in MachineParams, which result_key hashes in full;
    # the version bump retires every pre-backend cache slot.
    assert cache.CACHE_VERSION >= 5
    common = dict(workload="mcf", config="SPT{Bwd,ShadowL1}",
                  model=AttackModel.FUTURISTIC, scale=1,
                  max_instructions=1000)
    ref_key = cache.result_key(params=MachineParams(backend="reference"),
                               **common)
    vec_key = cache.result_key(params=MachineParams(backend="vector"),
                               **common)
    assert ref_key != vec_key


def test_vector_results_pickle_and_flow_through_run_many(tmp_path,
                                                         monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    params = MachineParams(backend="vector")
    specs = [RunSpec("chacha20", "SPT{Bwd,ShadowL1}", AttackModel.FUTURISTIC,
                     max_instructions=500, params=params),
             RunSpec("mcf", "STT", AttackModel.SPECTRE,
                     max_instructions=500, params=params)]
    results = run_many(specs, jobs=2, use_cache=True)
    # The budget is a floor for stopping, not an exact count: the last
    # commit group may overshoot by up to commit_width - 1.
    assert all(r.retired >= 500 for r in results)
    restored = pickle.loads(pickle.dumps(results[0]))
    assert restored.cycles == results[0].cycles
    # A second sweep is served from the cache written by the first.
    again = run_many(specs, jobs=1, use_cache=True)
    assert [(r.cycles, r.stats) for r in again] == \
        [(r.cycles, r.stats) for r in results]


def test_vector_backend_without_numpy_raises_actionably(monkeypatch):
    monkeypatch.setattr(deps, "np", None)
    program = get_workload("chacha20").program(1)
    with pytest.raises(ImportError, match="numpy") as info:
        build_core(program, params=MachineParams(backend="vector"))
    assert "backend='reference'" in str(info.value)


def test_reference_backend_needs_no_numpy():
    # Run a reference simulation in a subprocess whose import machinery
    # refuses numpy outright: the reference backend must be unaffected and
    # the vector backend must fail with the actionable message.
    script = textwrap.dedent("""
        import sys

        class BlockNumpy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" or name.startswith("numpy."):
                    raise ImportError("numpy is blocked in this test")
                return None

        sys.meta_path.insert(0, BlockNumpy())
        from repro.harness.runner import run_one
        from repro.pipeline.params import MachineParams

        result = run_one("chacha20", "SPT{Bwd,ShadowL1}",
                         max_instructions=300)
        assert result.retired > 0, result.retired
        try:
            run_one("chacha20", "SPT{Bwd,ShadowL1}", max_instructions=300,
                    params=MachineParams(backend="vector"))
        except ImportError as exc:
            assert "backend='reference'" in str(exc), exc
        else:
            raise AssertionError("vector backend ran without numpy")
        print("no-numpy-ok")
    """)
    repo_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ,
               PYTHONPATH=os.path.join(repo_root, "src"),
               REPRO_NO_CACHE="1")
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, cwd=repo_root)
    assert completed.returncode == 0, completed.stderr
    assert "no-numpy-ok" in completed.stdout
