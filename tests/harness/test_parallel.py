"""Tests for the parallel fan-out layer (``repro.harness.parallel``)."""

import pytest

from repro.core.attack_model import AttackModel
from repro.harness import parallel
from repro.harness.parallel import RunFailure, RunSpec, default_jobs, run_many

BUDGET = 400


def specs_small():
    return [RunSpec(workload, config, AttackModel.FUTURISTIC,
                    max_instructions=BUDGET)
            for workload in ("mcf", "djbsort")
            for config in ("UnsafeBaseline", "SPT{Bwd,ShadowL1}")]


def fingerprint(results):
    return [(r.workload, r.config, r.cycles, r.retired, r.metrics.flatten())
            for r in results]


def test_serial_parallel_equivalence():
    """REPRO_JOBS=1 and a 4-worker pool must agree bit-for-bit."""
    serial = run_many(specs_small(), jobs=1, use_cache=False)
    pooled = run_many(specs_small(), jobs=4, use_cache=False)
    assert fingerprint(serial) == fingerprint(pooled)


def test_results_in_spec_order():
    results = run_many(specs_small(), jobs=4, use_cache=False)
    assert [(r.workload, r.config) for r in results] == \
        [(s.workload, s.config) for s in specs_small()]


def test_duplicate_specs_simulated_once(monkeypatch):
    calls = []
    real = parallel.run_group

    def counting(workload, configs, *args, **kwargs):
        calls.extend((workload, config) for config in configs)
        return real(workload, configs, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_group", counting)
    spec = RunSpec("xz", "STT", max_instructions=BUDGET)
    results = run_many([spec, spec, spec], jobs=1, use_cache=False)
    assert len(calls) == 1
    assert len(results) == 3
    assert fingerprint(results[:1]) == fingerprint(results[1:2])

    # Interleaved duplicates, cold then warm: the cold sweep simulates each
    # distinct cell once, the warm one simulates nothing, and both answer
    # in spec order.
    other = RunSpec("mcf", "UnsafeBaseline", max_instructions=BUDGET)
    sweep = [spec, other, spec, other, spec]
    calls.clear()
    cold = run_many(sweep, jobs=1, use_cache=True)
    assert calls == [("xz", "STT"), ("mcf", "UnsafeBaseline")]
    warm = run_many(sweep, jobs=1, use_cache=True)
    assert len(calls) == 2
    assert [(r.workload, r.config) for r in warm] == \
        [(s.workload, s.config) for s in sweep]
    assert fingerprint(warm) == fingerprint(cold)


def test_model_independent_configs_shared(monkeypatch):
    """UnsafeBaseline ignores the attack model: one run serves both."""
    calls = []
    real = parallel.run_group

    def counting(workload, configs, *args, **kwargs):
        calls.extend(workload for _ in configs)
        return real(workload, configs, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_group", counting)
    results = run_many(
        [RunSpec("xz", "UnsafeBaseline", AttackModel.FUTURISTIC,
                 max_instructions=BUDGET),
         RunSpec("xz", "UnsafeBaseline", AttackModel.SPECTRE,
                 max_instructions=BUDGET)],
        jobs=1, use_cache=False)
    assert len(calls) == 1
    assert results[0].cycles == results[1].cycles


def test_empty_spec_list():
    assert run_many([], jobs=4) == []


def test_failure_names_the_spec_serial():
    bad = RunSpec("no-such-workload", "STT", max_instructions=100)
    with pytest.raises(RunFailure) as excinfo:
        run_many([bad], jobs=1, use_cache=False)
    message = str(excinfo.value)
    assert "no-such-workload" in message
    assert "STT" in message
    assert excinfo.value.spec == bad


def test_failure_names_the_spec_parallel():
    specs = [RunSpec("mcf", "STT", max_instructions=200),
             RunSpec("no-such-workload", "STT", max_instructions=100)]
    with pytest.raises(RunFailure) as excinfo:
        run_many(specs, jobs=4, use_cache=False)
    assert "no-such-workload" in str(excinfo.value)


def test_invalid_jobs_rejected():
    with pytest.raises(ValueError):
        run_many(specs_small(), jobs=0)


def test_default_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert default_jobs() == 7
    monkeypatch.setenv("REPRO_JOBS", "three")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()


def test_pool_failure_falls_back_to_serial(monkeypatch):
    """If the pool cannot start, run_many degrades to in-process runs."""
    monkeypatch.setattr(parallel, "_run_pool", lambda *a, **k: None)
    results = run_many(specs_small(), jobs=4, use_cache=False)
    assert fingerprint(results) == \
        fingerprint(run_many(specs_small(), jobs=1, use_cache=False))


def test_serial_path_without_timeout_runs_inline(monkeypatch):
    """The serial path calls run_group directly, on the calling thread."""
    import threading
    threads = []

    real = parallel.run_group

    def spy(*args, **kwargs):
        threads.append(threading.current_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "run_group", spy)
    run_many([RunSpec("mcf", "UnsafeBaseline", max_instructions=BUDGET)],
             jobs=1, use_cache=False)
    assert threads == [threading.main_thread()]
