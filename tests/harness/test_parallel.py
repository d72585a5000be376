"""Tests for the parallel fan-out layer (``repro.harness.parallel``)."""

import time

import pytest

from repro.core.attack_model import AttackModel
from repro.harness import parallel
from repro.harness.parallel import (RunFailure, RunSpec, default_jobs,
                                    default_timeout, run_many)

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
    real = parallel.run_one

    def counting(workload, config, *args, **kwargs):
        calls.append((workload, config))
        return real(workload, config, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_one", counting)
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
    real = parallel.run_one

    def counting(workload, config, *args, **kwargs):
        calls.append(workload)
        return real(workload, config, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_one", counting)
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


def test_default_timeout_env(monkeypatch):
    monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
    assert default_timeout() is None
    monkeypatch.setenv("REPRO_RUN_TIMEOUT", "2.5")
    assert default_timeout() == 2.5
    monkeypatch.setenv("REPRO_RUN_TIMEOUT", "-1")
    with pytest.raises(ValueError, match="REPRO_RUN_TIMEOUT"):
        default_timeout()
    monkeypatch.setenv("REPRO_RUN_TIMEOUT", "soon")
    with pytest.raises(ValueError, match="REPRO_RUN_TIMEOUT"):
        default_timeout()


def test_timeout_does_not_wait_for_the_hung_run():
    """A run exceeding its timeout must fail the sweep *promptly*.

    Regression test: ``_run_pool`` used to exit through the executor's
    context manager, whose shutdown joins running workers — so a wedged
    simulation stalled the sweep for however long the hang lasted, long
    past the deadline the timeout promised.  The specs below each take
    tens of seconds of simulation; the sweep must abandon them within
    the timeout plus pool-management overhead.
    """
    slow = [RunSpec("mcf", "UnsafeBaseline", scale=150 + extra,
                    max_instructions=10_000_000) for extra in (0, 1)]
    start = time.perf_counter()
    with pytest.raises(RunFailure, match="timeout"):
        run_many(slow, jobs=2, timeout=1.5, use_cache=False)
    elapsed = time.perf_counter() - start
    assert elapsed < 8.0, (
        f"sweep took {elapsed:.1f}s after a 1.5s timeout: the pool "
        f"shutdown waited for the hung simulation")


def test_pool_failure_falls_back_to_serial(monkeypatch):
    """If the pool cannot start, run_many degrades to in-process runs."""
    monkeypatch.setattr(parallel, "_run_pool", lambda *a, **k: None)
    results = run_many(specs_small(), jobs=4, use_cache=False)
    assert fingerprint(results) == \
        fingerprint(run_many(specs_small(), jobs=1, use_cache=False))


def test_serial_path_honours_timeout(monkeypatch):
    """Regression: jobs=1 used to ignore ``timeout`` entirely, so a wedged
    simulation hung the sweep forever on the serial path."""
    def wedge(*_args, **_kwargs):
        time.sleep(10.0)

    monkeypatch.setattr(parallel, "run_one", wedge)
    spec = RunSpec("mcf", "UnsafeBaseline", max_instructions=BUDGET)
    start = time.perf_counter()
    with pytest.raises(RunFailure, match="timeout"):
        run_many([spec], jobs=1, timeout=0.3, use_cache=False)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, (
        f"serial sweep took {elapsed:.1f}s after a 0.3s timeout")


def test_serial_path_without_timeout_runs_inline(monkeypatch):
    """No timeout → no watchdog thread; run_one is called directly."""
    import threading
    threads = []

    real = parallel.run_one

    def spy(*args, **kwargs):
        threads.append(threading.current_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "run_one", spy)
    run_many([RunSpec("mcf", "UnsafeBaseline", max_instructions=BUDGET)],
             jobs=1, use_cache=False)
    assert threads == [threading.main_thread()]
