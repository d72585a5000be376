"""The leakage-fuzzing campaign driver.

A campaign fans ``seeds x attack-models x configurations x 2 secrets``
runs through :func:`repro.harness.parallel.run_many` — every run is an
ordinary harness run (parallelised, cached, deduplicated; the
``UnsafeBaseline`` runs are even shared between attack models via the
model-independent cache key).  A cell's two secrets are twins, which
``run_many`` simulates as one paired run until the secrets steer an
address or a branch, and one seed's protected cells under one model are
adjacent, so they run as one twin group: one paired core per class of
agreeing engines.  The campaign then folds the per-channel trace digests,
in (seed, configuration, model) order, into oracle verdicts, triage
counts, and corpus records.

Every campaign judges every seed it is asked for.  Work is reused only
through the result cache, whose key holds everything a verdict depends on:
a re-run under unchanged code, configurations, models and budget simulates
nothing and reports the same verdicts.  The corpus records what ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.attack_model import AttackModel
from repro.fuzz.corpus import Corpus
from repro.fuzz.generator import (FuzzPlan, generate_plan, plan_to_json,
                                  render, secret_pair, workload_name)
from repro.fuzz.minimize import minimize_plan
from repro.fuzz.oracle import (FUZZ_BUDGET, CellVerdict,
                               architectural_dependence, divergence_detail)
from repro.fuzz.report import FuzzReport
from repro.harness import cache
from repro.harness.configs import BOTH_MODELS, CONFIGURATIONS
from repro.harness.parallel import RunSpec, SimTally, run_many
from repro.isa.interpreter import InterpreterError
from repro.security.attacks import expected_to_leak
from repro.security.observer import differing_channels


@dataclass
class CampaignConfig:
    """One campaign's parameters."""

    seeds: int = 50
    seed_start: int = 0
    profile: str = "default"
    configs: Sequence[str] = field(
        default_factory=lambda: list(CONFIGURATIONS))
    models: Sequence[AttackModel] = field(
        default_factory=lambda: list(BOTH_MODELS))
    jobs: Optional[int] = None          # None: REPRO_JOBS / CPU count
    minimize: bool = False
    corpus_dir: Optional[str] = None    # None: in-memory only
    use_cache: Optional[bool] = None    # None: consult REPRO_NO_CACHE
    max_instructions: int = FUZZ_BUDGET


@dataclass
class _SeedWork:
    """One seed's plan, secrets, and validity."""

    seed: int
    plan: FuzzPlan
    secrets: tuple
    valid: bool
    reason: str = ""


def _prepare_seed(seed: int, cfg: CampaignConfig) -> _SeedWork:
    """Generate and architecturally validate one seed's victim pair."""
    plan = generate_plan(seed, cfg.profile)
    secrets = secret_pair(seed)
    try:
        dependent = architectural_dependence(
            render(plan, secrets[0]), render(plan, secrets[1]),
            max_instructions=cfg.max_instructions)
    except InterpreterError as exc:
        return _SeedWork(seed, plan, secrets, False, str(exc))
    if dependent:
        return _SeedWork(seed, plan, secrets, False,
                         "committed path depends on the secret")
    return _SeedWork(seed, plan, secrets, True)


def run_campaign(cfg: CampaignConfig) -> FuzzReport:
    """Run one campaign end to end; returns the triage report."""
    start = time.perf_counter()
    fingerprint = cache.source_fingerprint()
    corpus = Corpus(cfg.corpus_dir)
    report = FuzzReport(
        profile=cfg.profile, seeds_requested=cfg.seeds,
        configs=list(cfg.configs), models=[m.value for m in cfg.models])

    work = [_prepare_seed(seed, cfg)
            for seed in range(cfg.seed_start, cfg.seed_start + cfg.seeds)]
    for item in work:
        if not item.valid:
            report.invalid_seeds.append(item.seed)
            corpus.append({
                "type": "seed", "seed": item.seed, "profile": cfg.profile,
                "fingerprint": fingerprint, "valid": False,
                "reason": item.reason,
                "exposure": item.plan.exposure,
                "secrets": [f"{s:x}" for s in item.secrets], "cells": []})

    # The whole campaign as one deduplicated, cached, parallel sweep.
    runnable = [item for item in work if item.valid]
    cells = [(item, config, model)      # verdict order: seed, config, model
             for item in runnable for config in cfg.configs
             for model in cfg.models]
    # The specs run in (seed, model, config, secret) order, so that one
    # seed's twin cells under one model are adjacent and run as a group.
    per_seed = len(cfg.configs) * len(cfg.models)
    order = sorted(range(len(cells)),
                   key=lambda index: (index // per_seed,
                                      index % len(cfg.models)))
    specs = [RunSpec(workload_name(cfg.profile, item.seed, secret), config,
                     model, max_instructions=cfg.max_instructions,
                     collect_trace=True)
             for item, config, model in (cells[index] for index in order)
             for secret in item.secrets]
    tally = SimTally()
    results = run_many(specs, jobs=cfg.jobs, use_cache=cfg.use_cache,
                       tally=tally)
    pairs = {index: results[2 * rank:2 * rank + 2]
             for rank, index in enumerate(order)}

    outcomes: dict = {}     # seed -> list of verdict dicts
    for pair_index, (item, config, model) in enumerate(cells):
        result_a, result_b = pairs[pair_index]
        channels = differing_channels(result_a.trace_digests,
                                      result_b.trace_digests)
        verdict = CellVerdict(config, model, tuple(channels),
                              expected_to_leak(item.plan.exposure, config))
        report.cells_checked += 1
        if verdict.diverged:
            report.divergences_by_config[config] = \
                report.divergences_by_config.get(config, 0) + 1
            for channel in channels:
                report.divergences_by_channel[channel] = \
                    report.divergences_by_channel.get(channel, 0) + 1
            if config == "UnsafeBaseline":
                report.unsafe_divergences += 1
        outcomes.setdefault(item.seed, []).append({
            "config": config, "model": model.value,
            "channels": list(channels), "expected": verdict.expected})
        if verdict.counterexample:
            record = _counterexample_record(item, verdict, cfg, tally)
            report.counterexamples.append(record)
            corpus.append(record)
    report.simulations = tally.simulations
    report.paired_runs = tally.paired
    report.fallbacks = dict(tally.fallbacks)

    for item in runnable:
        corpus.append({
            "type": "seed", "seed": item.seed, "profile": cfg.profile,
            "fingerprint": fingerprint, "valid": True,
            "exposure": item.plan.exposure,
            "secrets": [f"{s:x}" for s in item.secrets],
            "cells": outcomes.get(item.seed, []),
            "counterexample": any(
                c["channels"] and not c["expected"]
                for c in outcomes.get(item.seed, []))})

    report.wall_seconds = time.perf_counter() - start
    return report


def _counterexample_record(item: _SeedWork, verdict, cfg,
                           tally: SimTally) -> dict:
    """Explain and (optionally) minimise one counterexample; its core
    runs, which the result cache does not hold, are added to ``tally``."""
    program_a = render(item.plan, item.secrets[0])
    record = {
        "type": "counterexample", "seed": item.seed,
        "profile": cfg.profile, "config": verdict.config,
        "model": verdict.model.value, "channels": list(verdict.channels),
        "exposure": item.plan.exposure,
        "secrets": [f"{s:x}" for s in item.secrets],
        "plan": plan_to_json(item.plan),
        "instructions": len(program_a.instructions),
        "detail": divergence_detail(
            program_a, render(item.plan, item.secrets[1]),
            verdict.config, verdict.model,
            max_instructions=cfg.max_instructions, tally=tally),
    }
    if cfg.minimize:
        minimized = minimize_plan(item.plan, item.secrets, verdict.config,
                                  verdict.model,
                                  max_instructions=cfg.max_instructions,
                                  tally=tally)
        record["minimized_plan"] = plan_to_json(minimized.plan)
        record["minimized_instructions"] = minimized.instructions_after
        record["minimize_checks"] = minimized.checks
    return record
