"""Smoke test of the benchmark itself: a reduced-size run of each workload.

    python3 perfbench/smoke.py

For every workload it runs ``run.py --small`` untraced and traced and
asserts that:

* the last output line is the result object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``, and the output
  checks passed;
* every ``end_to_end`` (untraced) or ``per_layer`` (traced) metric named in
  ``BENCHMARK.json`` is printed with its unit;
* in the traced run, layer self times plus ``trace.unattributed_s`` add up
  to the traced wall time, no self time is negative, and unattributed time
  is at most 5% of the wall time.

Last, it copies only ``BENCHMARK.json`` and the benchmark's files into an
empty directory and checks that the benchmark fails there without printing
a result.  Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
UNATTRIBUTED_LIMIT = 0.05


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, result
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_metrics(result: dict, wanted: list) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, sorted(metrics)
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)


def check_spans(workload: str) -> None:
    with open(os.path.join(OUT, f"spans-{workload}-seed1.json")) as handle:
        trace = json.load(handle)
    wall = trace["end"] - trace["start"]
    self_s = trace["self_s"]
    unattributed = trace["per_layer"]["trace.unattributed_s"]
    assert abs(sum(self_s.values()) + unattributed - wall) < 1e-6 * max(1, wall)
    assert min(self_s.values()) >= 0, self_s
    assert 0 <= unattributed <= UNATTRIBUTED_LIMIT * wall, (unattributed, wall)
    for name, start, end, parent, run in trace["spans"]:
        assert start <= end and run == trace["run"], name
        assert parent is None or parent < len(trace["spans"])


def check_bare_directory() -> None:
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fig7-grid", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    assert proc.returncode != 0, proc.stdout
    assert not last.startswith("{"), last
    shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        common = ["--workload", workload, "--seed", "1", "--seconds", "1",
                  "--small"]
        check_metrics(result_of(bench(*common, "--trace", "0")),
                      spec["end_to_end"])
        check_metrics(result_of(bench(*common, "--trace", "1")),
                      spec["per_layer"])
        check_spans(workload)
        print(f"ok {workload}")
    check_bare_directory()
    print("ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
