"""Campaign driver, corpus persistence/resume, report, and the fuzz CLI."""

import json

import pytest

from repro.core.attack_model import AttackModel
from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.corpus import Corpus
from repro.fuzz.report import FuzzReport, render_report

# Two configurations and one model keep the campaign tests fast while still
# covering the sanity signal (UnsafeBaseline) and a secure configuration.
FAST_SWEEP = dict(profile="quick",
                  configs=["UnsafeBaseline", "SPT{Bwd,ShadowL1}"],
                  models=[AttackModel.SPECTRE], jobs=1)


def test_campaign_end_to_end(tmp_path):
    cfg = CampaignConfig(seeds=4, corpus_dir=str(tmp_path / "corpus"),
                         **FAST_SWEEP)
    report = run_campaign(cfg)
    assert report.seeds_run == 4 and report.seeds_resumed == 0
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


def test_campaign_resumes_from_corpus(tmp_path):
    corpus_dir = str(tmp_path / "corpus")
    first = run_campaign(CampaignConfig(seeds=3, corpus_dir=corpus_dir,
                                        **FAST_SWEEP))
    assert first.seeds_run == 3
    # Same campaign again: everything resumes, nothing re-runs.
    second = run_campaign(CampaignConfig(seeds=3, corpus_dir=corpus_dir,
                                         **FAST_SWEEP))
    assert second.seeds_run == 0 and second.seeds_resumed == 3
    assert second.ok
    # Extending the seed range only runs the new seeds.
    third = run_campaign(CampaignConfig(seeds=4, corpus_dir=corpus_dir,
                                        **FAST_SWEEP))
    assert third.seeds_run == 1 and third.seeds_resumed == 3


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
    assert reloaded.tried_seeds("quick", "f") == {1}
    assert reloaded.tried_seeds("quick", "other-fingerprint") == set()


def test_in_memory_corpus_has_no_path():
    corpus = Corpus(None)
    corpus.append({"type": "counterexample", "seed": 9})
    assert corpus.path is None
    assert corpus.counterexamples() == [{"type": "counterexample", "seed": 9}]


def test_report_sanity_failure_is_visible():
    report = FuzzReport(profile="quick", seeds_requested=2, seeds_run=2,
                        seeds_resumed=0, configs=["UnsafeBaseline"],
                        models=["spectre"], cells_checked=2)
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
