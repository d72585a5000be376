"""Fuzz-campaign throughput: serial vs. parallel oracle sweeps.

A leakage-fuzzing campaign is the harness's most fan-out-heavy client —
every seed costs ``configs x models x 2 secrets`` simulations — so its
throughput (victims per minute) is worth a trajectory line next to the
Figure 7 sweep in ``bench_parallel.py``.  The campaign here is a bounded
slice: quick-profile victims against the sanity configuration and full
SPT, one attack model.  The slice is sized so that the serial pass takes
several seconds on a 2-vCPU host: a pass much shorter than that times the
worker pool's start-up, not the fan-out.  Each pass prints its campaign's
``simulations:`` line, since paired secret runs make a seed's cost depend
on how many of its pairs fall back to separate runs.
"""

import time

from conftest import emit

from repro.core.attack_model import AttackModel
from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.fuzz.report import render_simulations
from repro.harness.parallel import default_jobs

SEEDS = 200
SWEEP = dict(profile="quick",
             configs=["UnsafeBaseline", "SPT{Bwd,ShadowL1}"],
             models=[AttackModel.SPECTRE], use_cache=False)


def test_fuzz_campaign_throughput(once):
    jobs = default_jobs()

    def two_passes():
        timings = {}
        start = time.perf_counter()
        serial = run_campaign(CampaignConfig(seeds=SEEDS, jobs=1, **SWEEP))
        timings["serial"] = time.perf_counter() - start

        start = time.perf_counter()
        parallel = run_campaign(CampaignConfig(seeds=SEEDS, jobs=jobs,
                                               **SWEEP))
        timings["parallel"] = time.perf_counter() - start
        return timings, serial, parallel

    timings, serial, parallel = once(two_passes)

    # Both passes fuzz the same victims and must reach the same verdicts.
    assert serial.ok and parallel.ok, "campaign found counterexamples"
    assert serial.divergences_by_config == parallel.divergences_by_config
    assert serial.unsafe_divergences >= 1, "oracle sanity signal is dead"

    lines = [f"fuzz campaign slice ({SEEDS} seeds x "
             f"{len(SWEEP['configs'])} configs x 1 model x 2 secrets, "
             f"jobs={jobs}):"]
    for name, report in (("serial", serial), ("parallel", parallel)):
        wall = timings[name]
        rate = SEEDS / max(wall, 1e-9) * 60
        speedup = timings["serial"] / max(wall, 1e-9)
        lines.append(f"  {name:<10} {wall:8.2f}s  {rate:7.1f} victims/min"
                     f"  ({speedup:4.1f}x vs serial)")
        lines.append(f"  {'':<10} {render_simulations(report)}")
    emit("fuzz_campaign", "\n".join(lines))
