"""The benchmark's workloads: set-up, one timed pass, and its output checks.

Every workload runs cold and at the entry points' defaults: a fresh
interpreter per pass, the result cache off, ``jobs=1``, and no ``backend``
selected.  Imports of the program happen inside :meth:`Case.setup`, so a
set-up-only process pays exactly what a user pays before the first
simulation.

A pass returns ``Outcome``: its ops (simulations, matrix cells, verify
checks and named output checks) with how many failed, plus counters read
from the results for the traced run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "benchmarks", "baselines", "BENCH_baseline.json")

# Headline overheads must equal the committed baseline within this.
OVERHEAD_TOLERANCE = 1e-6
# security-verdicts: fuzz seeds per pass; the range starts at seed * this.
CAMPAIGN_SEEDS = 40
# verify-targets: kernel scale (the crypto targets scale linearly; the
# gadget targets do not scale) and quick-profile plans per pass.
VERIFY_SCALE = 128
VERIFY_PLANS = 100


@dataclass
class Outcome:
    """What one pass did: ops attempted and failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str, ops: int = 1) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.problems.append(what)

    def merge(self, report: dict) -> None:
        """Add the ops of a worker's report (see ``worker.py``)."""
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.problems += report["problems"]


class Fig7Grid:
    """``figure7.collect`` over all registry workloads at the CI budget."""

    name = "fig7-grid"

    def __init__(self, small: bool):
        with open(BASELINE) as handle:
            baseline = json.load(handle)
        self.budget = baseline["budget"]
        self.scale = baseline["scale"]
        self.expected = baseline["overheads"]
        self.small = small

    def setup(self) -> None:
        from repro.experiments import figure7
        from repro.workloads.registry import WORKLOADS
        self.figure7 = figure7
        names = list(WORKLOADS)
        # The reduced run keeps one kernel of each category, so every
        # headline number is still computed.
        self.workloads = ["mcf", "chacha20"] if self.small else names
        for name in self.workloads:
            WORKLOADS[name].program(self.scale)

    def run(self, seed: int):
        data = self.figure7.collect(self.workloads, scale=self.scale,
                                    budget=self.budget, jobs=1,
                                    use_cache=False)
        return data, self.figure7.headline(data)

    def check(self, result) -> Outcome:
        data, headline = result
        out = Outcome()
        specs = self.figure7.specs(data.workloads, data.configs, data.models,
                                   self.scale, self.budget)
        sims = len({spec.key() for spec in specs})
        out.check(all(0 < t < float("inf") for t in data.times.values()),
                  "a normalised time is not a positive number", sims)
        out.check(set(headline) == set(self.expected),
                  f"headline keys differ: {sorted(set(headline) ^ set(self.expected))}")
        if self.small:
            return out
        for key, want in sorted(self.expected.items()):
            got = headline.get(key)
            out.check(got is not None and abs(got - want) <= OVERHEAD_TOLERANCE,
                      f"{key}: {got} != baseline {want}")
        return out


class SecurityVerdicts:
    """The 96-cell scenario matrix plus a quick-profile fuzz campaign."""

    name = "security-verdicts"

    def __init__(self, small: bool):
        self.small = small

    def setup(self) -> None:
        from repro.fuzz import campaign
        from repro.security import scenarios
        self.campaign = campaign
        self.scenarios = scenarios

    def run(self, seed: int):
        seeds = 2 if self.small else CAMPAIGN_SEEDS
        matrix = self.scenarios.scenario_matrix(
            ["spectre-pht", "nonspec-secret"] if self.small else None, jobs=1)
        report = self.campaign.run_campaign(self.campaign.CampaignConfig(
            seeds=seeds, seed_start=seed * seeds, profile="quick", jobs=1,
            use_cache=False))
        return matrix, report

    def check(self, result) -> Outcome:
        matrix, report = result
        out = Outcome()
        for cell in matrix:
            out.check(cell.passed, f"matrix {cell.scenario}/{cell.config}/"
                                   f"{cell.model}: leaked={cell.leaked}")
        cells = len(report.configs) * len(report.models)
        out.check(not report.invalid_seeds,
                  f"invalid fuzz seeds {report.invalid_seeds}")
        out.check(report.cells_checked == cells * report.seeds_requested,
                  f"cells_checked {report.cells_checked} != "
                  f"{cells * report.seeds_requested}")
        out.attempted += report.cells_checked
        out.failed += len(report.counterexamples)
        out.problems += [f"counterexample seed={c['seed']} {c['config']}/"
                         f"{c['model']}" for c in report.counterexamples]
        out.check(report.unsafe_divergences > 0,
                  "UnsafeBaseline never diverged (oracle sanity)")
        out.counts["fuzz.cells"] = report.cells_checked
        return out


class VerifyTargets:
    """``verify_target`` on every target plus ``check_plan`` on fuzz plans."""

    name = "verify-targets"

    def __init__(self, small: bool):
        self.small = small

    def setup(self) -> None:
        from repro.fuzz import generator
        from repro.verify import targets
        self.generator = generator
        self.targets = targets

    def run(self, seed: int):
        scale = 4 if self.small else VERIFY_SCALE
        plans = 5 if self.small else VERIFY_PLANS
        verdicts = {name: self.targets.verify_target(name, scale=scale)
                    for name in self.targets.TARGETS}
        checked = [self.targets.check_plan(self.generator.generate_plan(s, "quick"))
                   for s in range(seed * plans, (seed + 1) * plans)]
        return verdicts, checked

    def check(self, result) -> Outcome:
        verdicts, checked = result
        out = Outcome()
        for name, res in verdicts.items():
            want = self.targets.TARGETS[name].expected
            out.check(res.verdict == want and _witnessed(res),
                      f"target {name}: {res.verdict}, expected {want}")
        for res in checked:
            # A plan is architecturally secret-independent by generator
            # invariant, so a confirmed witness must be transient.
            out.check(_witnessed(res) and
                      all(w.depth > 0 for w in res.witnesses if w.confirmed),
                      f"plan {res.program}: {res.verdict}")
        return out


def _witnessed(res) -> bool:
    """No verdict is unknown; every leak carries a confirmed witness."""
    if res.verdict == "leak":
        return any(w.confirmed for w in res.witnesses)
    return res.verdict == "safe"


CASES = {case.name: case for case in (Fig7Grid, SecurityVerdicts, VerifyTargets)}
