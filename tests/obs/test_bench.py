"""Tests for performance snapshots (``repro.obs.bench``) and the CLI."""

import copy
import datetime
import json
from pathlib import Path

import pytest

from repro.obs import bench
from repro.obs.cli import _build_stats_parser, bench_main, stats_main
from repro.obs.stall import STALL_CAUSES

BUDGET = 120
WORKLOADS = ["mcf", "djbsort"]
DATA = Path(__file__).with_name("data")
BASELINE = (Path(__file__).parents[2] / "benchmarks" / "baselines"
            / "BENCH_baseline.json")
LOGS = [str(DATA / "perfbench-verify-targets.log"),
        str(DATA / "perfbench-fig7-grid.log")]


@pytest.fixture(scope="module")
def snapshot():
    return bench.record_snapshot(budget=BUDGET, jobs=1, reps=1,
                                 workloads=WORKLOADS)


def test_snapshot_shape(snapshot):
    assert snapshot["schema_version"] == bench.SCHEMA_VERSION
    assert snapshot["budget"] == BUDGET
    assert snapshot["workloads"] == WORKLOADS
    assert snapshot["throughput"]["instr_per_sec"] > 0
    assert snapshot["throughput"]["workload"] == bench.THROUGHPUT_WORKLOAD
    assert snapshot["overheads"], "headline overheads must be non-empty"
    fractions = snapshot["stall"]["fractions"]
    assert set(fractions) == {cause.key for cause in STALL_CAUSES}
    assert abs(sum(fractions.values()) - 1.0) < 1e-9
    assert snapshot["stall"]["total_cycles"] == \
        sum(snapshot["stall"]["cycles"].values())


def test_write_load_round_trip(snapshot, tmp_path):
    path = bench.write_snapshot(snapshot, str(tmp_path / "BENCH_test.json"))
    loaded = bench.load_snapshot(path)
    assert loaded == json.loads(json.dumps(snapshot))


def test_load_rejects_unknown_schema(snapshot, tmp_path):
    stale = dict(snapshot, schema_version=bench.SCHEMA_VERSION + 1)
    path = bench.write_snapshot(stale, str(tmp_path / "BENCH_stale.json"))
    with pytest.raises(ValueError, match="schema"):
        bench.load_snapshot(path)


def test_compare_self_is_clean(snapshot):
    assert bench.compare_snapshots(snapshot, snapshot) == []


def test_compare_flags_throughput_regression(snapshot):
    slow = copy.deepcopy(snapshot)
    slow["throughput"]["instr_per_sec"] /= 2.0
    failures = bench.compare_snapshots(snapshot, slow)
    assert len(failures) == 1
    assert "throughput regression" in failures[0]
    # A 2x speed-up is never a failure (one-sided check).
    assert bench.compare_snapshots(slow, snapshot) == []


def test_compare_flags_overhead_drift(snapshot):
    drifted = copy.deepcopy(snapshot)
    key = sorted(drifted["overheads"])[0]
    drifted["overheads"][key] += 0.01
    failures = bench.compare_snapshots(snapshot, drifted)
    assert any("overhead shape changed" in f and key in f for f in failures)


def test_compare_flags_stall_shape_drift(snapshot):
    drifted = copy.deepcopy(snapshot)
    drifted["stall"]["fractions"]["retiring"] += 0.05
    failures = bench.compare_snapshots(snapshot, drifted)
    assert any("stall shape changed: retiring" in f for f in failures)


def test_compare_refuses_mismatched_sweeps(snapshot):
    other = copy.deepcopy(snapshot)
    other["budget"] = BUDGET * 2
    failures = bench.compare_snapshots(snapshot, other)
    # A budget mismatch is a CI configuration error, not a regression:
    # the message must name the knob to fix (REPRO_BENCH_BUDGET) and
    # both disagreeing values.
    assert len(failures) == 1
    assert "incomparable snapshots" in failures[0]
    assert "REPRO_BENCH_BUDGET" in failures[0]
    assert repr(BUDGET) in failures[0]
    assert repr(BUDGET * 2) in failures[0]


def test_bench_cli_compare_exit_codes(snapshot, tmp_path):
    base = bench.write_snapshot(snapshot, str(tmp_path / "base.json"))
    slow = copy.deepcopy(snapshot)
    slow["throughput"]["instr_per_sec"] /= 2.0
    regressed = bench.write_snapshot(slow, str(tmp_path / "slow.json"))

    assert bench_main(["compare", base, base]) == 0
    assert bench_main(["compare", base, regressed]) == 1
    assert bench_main(["compare", base, str(tmp_path / "missing.json")]) == 2
    assert bench_main(["show", base]) == 0


def test_bench_cli_profile_writes_pstats(tmp_path, monkeypatch, capsys):
    import pstats

    monkeypatch.setenv("REPRO_BENCH_BUDGET", str(BUDGET))
    out = str(tmp_path / "bench.pstats")
    assert bench_main(["profile", "-o", out, "--runs", "1"]) == 0
    text = capsys.readouterr().out
    assert "cumulative" in text
    stats = pstats.Stats(out)
    assert stats.total_calls > 0


def test_bench_cli_record(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_BUDGET", str(BUDGET))
    out = str(tmp_path / "BENCH_cli.json")
    assert bench_main(["record", "-o", out, "--reps", "1",
                       "--jobs", "1", "--perfbench", *LOGS]) == 0
    recorded = bench.load_snapshot(out)
    assert recorded["budget"] == BUDGET
    section = recorded["end_to_end"]
    assert sorted(section["workloads"]) == ["fig7-grid", "verify-targets"]
    assert "end to end (perfbench medians" in capsys.readouterr().out


def test_record_and_profile_default_to_the_snapshot_budget(tmp_path,
                                                          monkeypatch):
    """``record`` and ``profile`` measure at the committed baseline's
    budget unless ``REPRO_BENCH_BUDGET`` or ``--budget`` names another; the
    measurement is stubbed to report the budget it receives."""
    class Measured(Exception):
        pass

    def collect(**kwargs):
        raise Measured(kwargs["budget"])

    def run_one(*_args, max_instructions, **_kwargs):
        raise Measured(max_instructions)

    monkeypatch.setattr(bench.figure7, "collect", collect)
    monkeypatch.setattr(bench, "run_one", run_one)
    baseline = json.loads(BASELINE.read_text())
    assert bench.SNAPSHOT_BUDGET == baseline["budget"]
    out = str(tmp_path / "out")
    for env, flags, want in ((None, [], bench.SNAPSHOT_BUDGET),
                             ("77", [], 77), ("77", ["--budget", "33"], 33)):
        if env is None:
            monkeypatch.delenv("REPRO_BENCH_BUDGET", raising=False)
        else:
            monkeypatch.setenv("REPRO_BENCH_BUDGET", env)
        for command in ("record", "profile"):
            with pytest.raises(Measured) as measured:
                bench_main([command, "-o", out, *flags])
            assert measured.value.args == (want,), (command, env, flags)


def test_default_snapshot_name_is_the_first_free_one(tmp_path):
    day = datetime.date(2026, 10, 19)
    for name in ("BENCH_20261019.json", "BENCH_20261019b.json",
                 "BENCH_20261019c.json"):
        assert bench.default_snapshot_name(day, str(tmp_path)) == name
        (tmp_path / name).write_text("{}")


def test_bench_cli_record_never_overwrites_a_default_name(
        tmp_path, monkeypatch, capsys, snapshot):
    """Without ``-o``, ``record`` writes the first free dated name and
    leaves an existing snapshot as it is; ``-o`` writes where it is told."""
    monkeypatch.setattr(bench, "record_snapshot",
                        lambda **_kwargs: copy.deepcopy(snapshot))
    monkeypatch.chdir(tmp_path)
    first = tmp_path / bench.default_snapshot_name()
    first.write_text("earlier snapshot")
    assert bench_main(["record"]) == 0
    assert first.read_text() == "earlier snapshot"
    second = first.with_name(first.stem + "b.json")
    assert bench.load_snapshot(str(second))["budget"] == BUDGET
    assert f"snapshot written to {second.name}" in capsys.readouterr().out
    assert bench_main(["record", "-o", str(first)]) == 0
    assert bench.load_snapshot(str(first))["budget"] == BUDGET


def test_read_perfbench_log():
    run = bench.read_perfbench_log(LOGS[0])
    assert run["workload"] == "verify-targets" and run["seed"] == 1
    assert run["result"]["metrics"]["wall_s"] == {"value": 2.0, "unit": "s"}
    assert run["result"]["attempted"] == 315


@pytest.mark.parametrize("text,reason", [
    ("", "empty"),
    ("verify-targets seed=1: 3 pass(es)\n{}\n", "names no workload"),
    ("workload=verify-targets seed=1 seconds=20.0 trace=1\n"
     '{"correct": true, "metrics": {}}\n', "traced run"),
    ("workload=verify-targets seed=1 seconds=20.0 trace=0\n"
     "error: every pass failed\n", "not a perfbench result"),
])
def test_read_perfbench_log_rejects_what_is_not_a_result(tmp_path, text,
                                                          reason):
    path = tmp_path / "run.log"
    path.write_text(text)
    with pytest.raises(ValueError, match=reason):
        bench.read_perfbench_log(str(path))


def test_end_to_end_section_takes_each_metric_median(tmp_path):
    lines = (DATA / "perfbench-verify-targets.log").read_text().splitlines()
    paths = []
    for seed, wall in ((1, 2.0), (1, 4.0), (2, 3.5)):
        result = json.loads(lines[-1])
        result["metrics"]["wall_s"]["value"] = wall
        path = tmp_path / f"run-{wall}.log"
        path.write_text(f"workload=verify-targets seed={seed} seconds=20.0 "
                        f"trace=0\n{json.dumps(result)}\n")
        paths.append(str(path))
    section = bench.end_to_end_section(paths + [LOGS[1]])
    assert section["host"]["vcpus"] >= 1 and section["host"]["python"]
    entry = section["workloads"]["verify-targets"]
    assert entry["runs"] == 3 and entry["seeds"] == [1, 2]
    assert entry["attempted"] == 945 and entry["failed"] == 0
    assert entry["metrics"]["wall_s"] == {"value": 3.5, "unit": "s"}
    assert entry["metrics"]["peak_rss_mb"] == {"value": 49.5, "unit": "MiB"}
    assert section["workloads"]["fig7-grid"]["runs"] == 1


def test_compare_ignores_end_to_end_medians(snapshot, tmp_path, capsys):
    """Medians of two recordings are no change: ``compare`` ignores them
    and ``show`` renders them."""
    before = dict(snapshot, end_to_end=bench.end_to_end_section(LOGS))
    after = copy.deepcopy(before)
    after["end_to_end"]["workloads"]["verify-targets"]["metrics"][
        "wall_s"]["value"] = 4.0                # twice as slow
    assert bench.compare_snapshots(before, after) == []
    old = bench.write_snapshot(before, str(tmp_path / "before.json"))
    new = bench.write_snapshot(after, str(tmp_path / "after.json"))
    capsys.readouterr()
    assert bench_main(["compare", old, new]) == 0
    assert "wall_s" not in capsys.readouterr().out
    assert bench_main(["show", new]) == 0
    shown = capsys.readouterr().out
    assert "verify-targets" in shown and "wall_s 4 s" in shown


def test_bench_cli_record_refuses_a_bad_log_before_measuring(tmp_path,
                                                             capsys):
    bad = tmp_path / "bad.log"
    bad.write_text("not a perfbench log\n")
    out = tmp_path / "BENCH_bad.json"
    assert bench_main(["record", "-o", str(out), "--perfbench",
                       str(bad)]) == 2
    assert "names no workload" in capsys.readouterr().err
    assert not out.exists()


def test_stats_cli_json(capsys):
    assert stats_main(["mcf", "--config", "SPT{Bwd,ShadowL1}",
                       "--max-instructions", "300", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    groups = blob["groups"]
    assert groups["sim"]["scalars"]["cycles"] > 0
    assert "stalls" in groups
    assert "engine" in groups


def test_stats_cli_text(capsys):
    assert stats_main(["mcf", "--max-instructions", "300"]) == 0
    out = capsys.readouterr().out
    assert "Begin Simulation Metrics" in out
    assert "sim.cycles" in out
    assert "stalls." in out


@pytest.mark.parametrize("flag,value", [("--scale", "0"), ("--scale", "-1"),
                                        ("--max-instructions", "0")])
def test_stats_parser_rejects_sizes_below_one(flag, value, capsys):
    # A zero scale builds a workload that never halts; the parser must
    # refuse it (and a budget below 1) before anything simulates.
    with pytest.raises(SystemExit) as info:
        _build_stats_parser().parse_args(["mcf", flag, value])
    assert info.value.code == 2
    assert f"error: argument {flag}: must be at least 1" in \
        capsys.readouterr().err
