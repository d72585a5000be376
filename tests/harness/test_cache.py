"""Tests for the persistent result cache (``repro.harness.cache``)."""

import json
import os

import pytest

from repro.core.attack_model import AttackModel
from repro.harness import cache, parallel
from repro.harness.parallel import RunSpec, run_many
from repro.pipeline.params import MachineParams

BUDGET = 400
SPEC = RunSpec("mcf", "SPT{Bwd,ShadowL1}", AttackModel.FUTURISTIC,
               max_instructions=BUDGET)


def counting_configs(monkeypatch):
    """The workload of each configuration ``run_many`` simulates."""
    calls = []
    real = parallel.run_group

    def counting(workload, configs, *args, **kwargs):
        calls.extend(workload for _ in configs)
        return real(workload, configs, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_group", counting)
    return calls


def test_cache_dir_env(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/some/where")
    assert cache.cache_dir() == "/some/where"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert cache.cache_dir().endswith(os.path.join(".cache", "repro"))


def test_cache_enabled_env(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    assert cache.cache_enabled()
    monkeypatch.setenv("REPRO_NO_CACHE", "0")
    assert cache.cache_enabled()
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert not cache.cache_enabled()


def test_second_invocation_hits_cache(monkeypatch):
    calls = counting_configs(monkeypatch)
    first = run_many([SPEC], jobs=1)
    assert len(calls) == 1
    second = run_many([SPEC], jobs=1)
    assert len(calls) == 1          # served from disk, no simulation
    assert first[0].cycles == second[0].cycles
    assert first[0].metrics.flatten() == second[0].metrics.flatten()
    assert first[0].metrics.group("engine.untaint").get("total") > 0


def test_no_cache_env_opts_out(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    calls = counting_configs(monkeypatch)
    run_many([SPEC], jobs=1)
    run_many([SPEC], jobs=1)
    assert len(calls) == 2


def test_untaints_per_cycle_keys_survive_round_trip():
    spec = RunSpec("mcf", "SPT{Ideal,ShadowMem}", AttackModel.FUTURISTIC,
                   max_instructions=BUDGET)
    fresh = run_many([spec], jobs=1)[0]
    cached = run_many([spec], jobs=1)[0]

    def widths(result):
        return result.metrics.group("engine.untaint").dists[
            "untaints_per_cycle"]

    assert widths(fresh)
    assert widths(cached) == widths(fresh)
    assert all(isinstance(k, int) for k in widths(cached))


def test_key_changes_with_budget():
    assert SPEC.key() != RunSpec(
        SPEC.workload, SPEC.config, SPEC.model,
        max_instructions=BUDGET + 1).key()


def test_key_changes_with_machine_params():
    base = RunSpec("mcf", "SPT{Bwd,ShadowL1}", max_instructions=BUDGET,
                   params=MachineParams())
    widened = RunSpec("mcf", "SPT{Bwd,ShadowL1}", max_instructions=BUDGET,
                      params=MachineParams(untaint_broadcast_width=8))
    assert base.key() != widened.key()
    # Default params hash like an explicit default MachineParams.
    assert base.key() == SPEC.key()


def test_key_changes_with_model_for_protected_configs():
    assert SPEC.key() != RunSpec(SPEC.workload, SPEC.config,
                                 AttackModel.SPECTRE,
                                 max_instructions=BUDGET).key()


def test_key_shared_across_models_for_unsafe_baseline():
    futuristic = RunSpec("mcf", "UnsafeBaseline", AttackModel.FUTURISTIC,
                         max_instructions=BUDGET)
    spectre = RunSpec("mcf", "UnsafeBaseline", AttackModel.SPECTRE,
                      max_instructions=BUDGET)
    assert futuristic.key() == spectre.key()


def test_key_changes_with_source_fingerprint(monkeypatch):
    before = SPEC.key()
    monkeypatch.setattr(cache, "source_fingerprint",
                        lambda: "deadbeef-simulated-code-change")
    assert SPEC.key() != before


def test_source_fingerprint_is_stable_and_memoised():
    first = cache.source_fingerprint()
    assert first == cache.source_fingerprint()
    assert len(first) == 64


def _malformed_metrics(path: str) -> str:
    with open(path) as handle:
        blob = json.load(handle)
    blob["metrics"] = []
    return json.dumps(blob)


@pytest.mark.parametrize("corrupt", [lambda path: "{ not json",
                                     _malformed_metrics],
                         ids=["not-json", "malformed-metrics"])
def test_corrupt_blob_is_a_miss(monkeypatch, corrupt):
    run_many([SPEC], jobs=1)
    key = SPEC.key()
    path = os.path.join(cache.cache_dir(), f"{key}.json")
    text = corrupt(path)
    with open(path, "w") as handle:
        handle.write(text)
    assert cache.load(key) is None
    calls = counting_configs(monkeypatch)
    run_many([SPEC], jobs=1)
    assert len(calls) == 1          # re-simulated and re-stored


def test_clear_removes_entries():
    run_many([SPEC], jobs=1)
    assert cache.clear() >= 1
    assert cache.load(SPEC.key()) is None


def test_store_survives_unwritable_dir(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/proc/definitely-not-writable")
    results = run_many([SPEC], jobs=1, use_cache=True)
    assert results[0].cycles > 0    # simulation succeeded, store was dropped


def test_checked_and_unchecked_runs_never_share_a_cache_entry(monkeypatch):
    """check_level is part of the cache key at every level."""
    checked = RunSpec(SPEC.workload, SPEC.config, AttackModel.FUTURISTIC,
                      max_instructions=BUDGET,
                      params=MachineParams(check_level="full"))
    commit = RunSpec(SPEC.workload, SPEC.config, AttackModel.FUTURISTIC,
                     max_instructions=BUDGET,
                     params=MachineParams(check_level="commit"))
    assert checked.key() != SPEC.key()
    assert commit.key() != SPEC.key()
    assert commit.key() != checked.key()

    calls = counting_configs(monkeypatch)
    unchecked_result = run_many([SPEC], jobs=1)[0]
    checked_result = run_many([checked], jobs=1)[0]
    assert len(calls) == 2      # the checked run missed the unchecked entry
    assert checked_result.metrics.group("check") is not None
    assert unchecked_result.metrics.group("check") is None
    # And the cached checked blob round-trips its check metrics.
    cached = run_many([checked], jobs=1)[0]
    assert len(calls) == 2
    assert cached.metrics.group("check").flatten() \
        == checked_result.metrics.group("check").flatten()


# ------------------------------------------------------------- stats / gc
def _write_entry(name: str, payload: bytes, mtime: float) -> str:
    path = os.path.join(cache.cache_dir(), name)
    os.makedirs(cache.cache_dir(), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(payload)
    os.utime(path, (mtime, mtime))
    return path


def test_stats_counts_entries_and_tmp_files():
    _write_entry("aa.json", b"x" * 100, mtime=1000.0)
    _write_entry("bb.json", b"x" * 50, mtime=1001.0)
    _write_entry("cc.tmp", b"x" * 7, mtime=1002.0)
    info = cache.stats()
    assert info["dir"] == cache.cache_dir()
    assert info["entries"] == 2
    assert info["bytes"] == 150
    assert info["tmp_files"] == 1
    assert info["tmp_bytes"] == 7


def test_gc_sweeps_stale_tmp_files_only():
    stale = _write_entry("stale.tmp", b"x", mtime=0.0)
    fresh = _write_entry("fresh.tmp", b"x", mtime=9000.0)
    kept = _write_entry("kept.json", b"x" * 10, mtime=100.0)
    swept = cache.gc(tmp_max_age=3600.0, now=10000.0)
    assert swept["tmp_removed"] == 1
    assert not os.path.exists(stale)
    assert os.path.exists(fresh)        # younger than tmp_max_age
    assert os.path.exists(kept)         # entries untouched without max_bytes
    assert swept["evicted"] == 0


def test_gc_evicts_oldest_entries_until_under_budget():
    oldest = _write_entry("old.json", b"x" * 100, mtime=1000.0)
    middle = _write_entry("mid.json", b"x" * 100, mtime=2000.0)
    newest = _write_entry("new.json", b"x" * 100, mtime=3000.0)
    swept = cache.gc(max_bytes=250, now=10000.0)
    assert swept["evicted"] == 1
    assert swept["evicted_bytes"] == 100
    assert not os.path.exists(oldest)
    assert os.path.exists(middle) and os.path.exists(newest)
    assert swept["remaining_entries"] == 2
    assert swept["remaining_bytes"] == 200


def test_hit_refreshes_entry_so_gc_evicts_least_recently_used():
    """An entry a sweep keeps hitting outlives one written after it."""
    first = RunSpec("mcf", "UnsafeBaseline", max_instructions=BUDGET)
    second = RunSpec("xz", "UnsafeBaseline", max_instructions=BUDGET)
    run_many([first, second], jobs=1, use_cache=True)
    paths = [os.path.join(cache.cache_dir(), f"{spec.key()}.json")
             for spec in (first, second)]
    for mtime, path in zip((1000.0, 2000.0), paths):
        os.utime(path, (mtime, mtime))
    run_many([first], jobs=1, use_cache=True)       # a hit
    cache.gc(max_bytes=max(os.path.getsize(path) for path in paths))
    assert [os.path.exists(path) for path in paths] == [True, False]


def test_hit_in_read_only_cache_is_served(monkeypatch):
    run_many([SPEC], jobs=1, use_cache=True)

    def refuse(*_args, **_kwargs):
        raise PermissionError("read-only file system")

    monkeypatch.setattr(os, "utime", refuse)
    assert cache.load(SPEC.key()) is not None


def test_gc_on_missing_dir_is_a_noop(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/nonexistent/cache/dir")
    swept = cache.gc(max_bytes=0)
    assert swept == {"tmp_removed": 0, "evicted": 0, "evicted_bytes": 0,
                     "remaining_entries": 0, "remaining_bytes": 0}


def test_cache_cli_stats_gc_clear(capsys):
    from repro.harness.cache_cli import cache_main, parse_bytes
    _write_entry("aa.json", b"x" * 100, mtime=1000.0)
    _write_entry("bb.json", b"x" * 100, mtime=2000.0)

    assert cache_main(["stats"]) == 0
    out = capsys.readouterr().out
    assert "entries:    2" in out

    assert cache_main(["gc", "--max-bytes", "150"]) == 0
    out = capsys.readouterr().out
    assert "evicted 1 entr(ies)" in out
    assert cache.stats()["entries"] == 1

    assert cache_main(["clear"]) == 0
    assert cache.stats()["entries"] == 0

    assert parse_bytes("500m") == 500 * 2**20
    assert parse_bytes("1G") == 2**30
    assert parse_bytes("42") == 42
