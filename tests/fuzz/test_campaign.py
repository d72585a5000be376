"""Campaign driver, corpus persistence, warm re-runs, report, and the
fuzz CLI."""

import json
import os

import pytest

from repro.core.attack_model import AttackModel
from repro.fuzz import campaign, oracle
from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.corpus import Corpus
from repro.fuzz.generator import secret_pair, workload_name
from repro.fuzz.report import FuzzReport, render_report
from repro.harness import parallel
from repro.harness.configs import BOTH_MODELS, CONFIGURATIONS, SECURE_CONFIGS
from repro.harness.parallel import GroupSpecs, RunSpec, TwinSpecs
from repro.pipeline.relational import SITES

# Two configurations and one model keep the campaign tests fast while still
# covering the sanity signal (UnsafeBaseline) and a secure configuration.
FAST_SWEEP = dict(profile="quick",
                  configs=["UnsafeBaseline", "SPT{Bwd,ShadowL1}"],
                  models=[AttackModel.SPECTRE], jobs=1)


def test_campaign_end_to_end(tmp_path):
    cfg = CampaignConfig(seeds=4, corpus_dir=str(tmp_path / "corpus"),
                         **FAST_SWEEP)
    report = run_campaign(cfg)
    assert report.seeds_requested == 4
    assert report.cells_checked == 4 * 2    # seeds x configs x 1 model
    assert not report.invalid_seeds
    assert not report.counterexamples
    assert report.unsafe_divergences >= 1, (
        "no UnsafeBaseline divergence: the oracle sanity signal is dead")
    assert report.sanity_ok and report.ok
    # Every seed landed in the corpus with its cell verdicts.
    corpus = Corpus(str(tmp_path / "corpus"))
    seeds = corpus.records("seed")
    assert {r["seed"] for r in seeds} == {0, 1, 2, 3}
    assert all(len(r["cells"]) == 2 for r in seeds)


def test_campaign_reports_the_simulations_it_ran():
    """One paired run per secret pair, plus two separate runs for each
    pair that fell back; a warm result cache simulates nothing."""
    cfg = CampaignConfig(seeds=3, **FAST_SWEEP)
    report = run_campaign(cfg)
    fallbacks = sum(report.fallbacks.values())
    assert report.paired_runs + fallbacks == report.cells_checked == 6
    assert report.paired_runs and fallbacks
    assert set(report.fallbacks) <= set(SITES)
    assert report.simulations == report.paired_runs + 3 * fallbacks
    assert f"simulations: {report.simulations} for 6 secret pairs" \
        in render_report(report)
    warm = run_campaign(cfg)
    assert (warm.simulations, warm.paired_runs, warm.fallbacks) == (0, 0, {})
    assert warm.divergences_by_config == report.divergences_by_config


def test_counterexample_detail_runs_at_the_campaign_budget(monkeypatch):
    """A counterexample's victims are re-run for its detail at the
    campaign's ``max_instructions``, not at the oracle's default budget.
    Here that default is shrunk below the victims' length, as a
    ``--max-instructions`` above it does to a victim longer than it."""
    monkeypatch.setattr(oracle, "FUZZ_BUDGET", 50)
    # Every UnsafeBaseline divergence counts as a counterexample.
    monkeypatch.setattr(campaign, "expected_to_leak",
                        lambda exposure, config: False)
    report = run_campaign(CampaignConfig(
        seeds=3, profile="quick", configs=["UnsafeBaseline"],
        models=[AttackModel.SPECTRE], jobs=1))
    assert report.counterexamples
    assert all(record["detail"].strip()
               for record in report.counterexamples)


@pytest.mark.parametrize("minimize", [False, True])
def test_counterexample_runs_count_as_simulations(monkeypatch, tmp_path,
                                                  run_modes, minimize):
    """The report's simulations are every core run the campaign made: a
    counterexample's detail runs and minimiser checks, which the result
    cache does not hold, included, cold and warm; and over every
    configuration and both models, its twin groups' runs too."""
    monkeypatch.setattr(campaign, "expected_to_leak",
                        lambda exposure, config: False)
    for configs, models in ((["UnsafeBaseline"], [AttackModel.SPECTRE]),
                            (list(CONFIGURATIONS), list(BOTH_MODELS))):
        # Each sweep starts from a cache of its own: its first run is cold.
        monkeypatch.setenv("REPRO_CACHE_DIR",
                           str(tmp_path / f"cache-{len(configs)}"))
        cfg = CampaignConfig(seeds=3, profile="quick", configs=configs,
                             models=models, jobs=1, use_cache=True,
                             minimize=minimize)
        for _ in ("cold", "warm"):
            run_modes.clear()
            report = run_campaign(cfg)
            assert report.counterexamples
            assert report.simulations == len(run_modes)


def test_campaign_runs_one_twin_group_per_seed_and_model(monkeypatch,
                                                        run_modes):
    """``run_many`` makes one twin-group cell per (seed, model) from the
    campaign's specs; UnsafeBaseline, whose result the models share, is in
    the first model's cell.  On quick seeds 40-79 the
    pair counts stay those of one cell per pair: 560 served by one paired
    run, 29 that fell back at a load address and 11 at a branch; and the
    report's simulations are the core runs made."""
    cells = []
    real = parallel.fan_out

    def spy(fn, batch, jobs):
        cells.extend(batch)
        return real(fn, batch, jobs)

    monkeypatch.setattr(parallel, "fan_out", spy)
    report = run_campaign(CampaignConfig(seeds=40, seed_start=40,
                                         profile="quick", jobs=1,
                                         use_cache=False))

    def twin(seed, config, model):
        return TwinSpecs(*(RunSpec(workload_name("quick", seed, secret),
                                   config, model,
                                   max_instructions=oracle.FUZZ_BUDGET,
                                   collect_trace=True)
                           for secret in secret_pair(seed)))

    expected = []
    for seed in range(40, 80):
        expected += [GroupSpecs(tuple(twin(seed, config, model)
                                      for config in configs))
                     for model, configs in zip(
                         BOTH_MODELS, (CONFIGURATIONS, SECURE_CONFIGS))]
    assert cells == expected
    assert report.paired_runs == 560
    assert report.fallbacks == {"load-address": 29, "branch": 11}
    assert report.simulations == len(run_modes) == 400


def _corpus_lines(corpus_dir) -> list:
    with open(f"{corpus_dir}/corpus.jsonl") as handle:
        return handle.readlines()


def test_warm_rerun_reports_the_same_table_and_appends_nothing(tmp_path):
    """The result cache is the only reuse: a same-code re-run judges every
    seed again, simulates nothing, and records nothing new."""
    corpus_dir = str(tmp_path / "corpus")
    cfg = CampaignConfig(seeds=3, corpus_dir=corpus_dir, use_cache=True,
                         **FAST_SWEEP)
    cold = run_campaign(cfg)
    lines = _corpus_lines(corpus_dir)
    warm = run_campaign(cfg)
    assert cold.simulations and warm.simulations == 0
    assert warm.cells_checked == cold.cells_checked == 3 * 2
    cold_text, warm_text = render_report(cold), render_report(warm)
    assert "simulations: 0 for 0 secret pairs" in warm_text
    # Everything after the header and simulations lines is the same.
    assert warm_text.splitlines()[2:] == cold_text.splitlines()[2:]
    assert _corpus_lines(corpus_dir) == lines


def test_wider_campaign_judges_every_cell_a_narrower_one_recorded(
        tmp_path):
    """A corpus written by a one-config, one-model campaign must not let a
    campaign over every configuration and model skip its seeds."""
    corpus_dir = str(tmp_path / "corpus")
    narrow = run_campaign(CampaignConfig(
        seeds=2, profile="quick", configs=["STT"],
        models=[AttackModel.SPECTRE], jobs=1, corpus_dir=corpus_dir,
        use_cache=True))
    assert narrow.cells_checked == 2
    wide = run_campaign(CampaignConfig(
        seeds=2, profile="quick", jobs=1, corpus_dir=corpus_dir,
        use_cache=True))
    assert wide.cells_checked == 2 * len(CONFIGURATIONS) * len(BOTH_MODELS)
    assert wide.unsafe_divergences and wide.ok


def test_campaign_without_unsafe_baseline_skips_sanity_gate():
    cfg = CampaignConfig(seeds=2, configs=["SPT{Bwd,ShadowL1}"],
                         profile="quick", models=[AttackModel.SPECTRE],
                         jobs=1)
    report = run_campaign(cfg)
    assert report.unsafe_divergences == 0
    assert report.sanity_ok and report.ok


def test_corpus_skips_truncated_trailing_line(tmp_path):
    directory = str(tmp_path / "corpus")
    corpus = Corpus(directory)
    corpus.append({"type": "seed", "seed": 1, "profile": "quick",
                   "fingerprint": "f", "cells": []})
    with open(corpus.path, "a") as handle:
        handle.write('{"type": "seed", "seed": 2, "prof')   # crash artifact
    reloaded = Corpus(directory)
    assert [r["seed"] for r in reloaded.records("seed")] == [1]
    # A record equal to one the corpus holds is not written again.
    size = os.path.getsize(corpus.path)
    reloaded.append({"type": "seed", "seed": 1, "profile": "quick",
                     "fingerprint": "f", "cells": []})
    assert [r["seed"] for r in reloaded.records("seed")] == [1]
    assert os.path.getsize(corpus.path) == size
    # A new record starts a line of its own, not the end of the partial one.
    reloaded.append({"type": "seed", "seed": 3, "profile": "quick",
                     "fingerprint": "f", "cells": []})
    reloaded.append({"type": "seed", "seed": 4, "profile": "quick",
                     "fingerprint": "f", "cells": []})
    assert [r["seed"] for r in Corpus(directory).records("seed")] == [1, 3, 4]


def test_in_memory_corpus_has_no_path():
    corpus = Corpus(None)
    corpus.append({"type": "counterexample", "seed": 9})
    assert corpus.path is None
    assert corpus.records("counterexample") == [
        {"type": "counterexample", "seed": 9}]


def test_report_sanity_failure_is_visible():
    report = FuzzReport(profile="quick", seeds_requested=2,
                        configs=["UnsafeBaseline"], models=["spectre"],
                        cells_checked=2)
    assert not report.sanity_ok and not report.ok
    assert "SANITY" in render_report(report)


def test_cli_runs_a_small_campaign(tmp_path, capsys):
    exit_code = fuzz_main([
        "--seeds", "2", "--profile", "quick", "--jobs", "1",
        "--configs", "UnsafeBaseline,SPT{Bwd,ShadowL1}",
        "--models", "spectre",
        "--corpus-dir", str(tmp_path / "corpus")])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "fuzz campaign" in out and "UnsafeBaseline" in out
    with open(tmp_path / "corpus" / "corpus.jsonl") as handle:
        records = [json.loads(line) for line in handle]
    assert {r["seed"] for r in records} == {0, 1}


def test_cli_rejects_bad_arguments(capsys):
    for argv in (["--seeds", "0"], ["--configs", "NotAConfig"],
                 ["--profile", "nope"]):
        with pytest.raises(SystemExit) as excinfo:
            fuzz_main(argv)
        assert excinfo.value.code == 2, argv
