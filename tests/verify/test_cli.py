"""The ``repro verify`` CLI: exit codes, report files, dispatch."""

import json

import pytest

from repro.cli import main as repro_main
from repro.verify.cli import main as verify_main


def test_target_mode_all_green(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert verify_main(["target", "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "chacha20: SAFE  [ok]" in out
    assert "spectre-v1: LEAK  [ok]" in out
    payload = json.loads(report.read_text())
    assert payload["ok"]
    assert len(payload["checks"]) == 5
    leak_checks = [c for c in payload["checks"] if c["verdict"] == "leak"]
    assert leak_checks
    for check in leak_checks:
        assert any(w["confirmed"] for w in check["witnesses"])


def test_target_mode_unknown_name_is_usage_error(capsys):
    assert verify_main(["target", "nonesuch"]) == 2
    assert "unknown target" in capsys.readouterr().err


def test_target_mode_fails_on_wrong_expectation(capsys):
    # A tiny budget leaves the kernels undecided: "unknown" != "safe".
    assert verify_main(["target", "chacha20",
                        "--max-instructions", "10"]) == 1
    assert "[EXPECTED SAFE]" in capsys.readouterr().out


def test_plan_mode(capsys):
    assert verify_main(["plan", "--seeds", "2",
                        "--profile", "quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("LEAK") + out.count("SAFE") >= 2


def test_plan_file_mode_accepts_counterexample_record(tmp_path, capsys):
    from repro.fuzz.generator import generate_plan, plan_to_json
    plan = generate_plan(3, "quick")
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps({"type": "counterexample",
                                "plan": plan_to_json(plan)}))
    assert verify_main(["plan-file", str(path)]) == 0
    assert "fuzz-quick-3" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["{not json", "{}"],
                         ids=["malformed-json", "no-plan"])
def test_plan_file_that_holds_no_plan_is_a_usage_error(tmp_path, capsys,
                                                       text):
    path = tmp_path / "plan.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as excinfo:
        verify_main(["plan-file", str(path)])
    assert excinfo.value.code == 2
    assert "error: argument path:" in capsys.readouterr().err


def test_crosscheck_mode_seeds(tmp_path, capsys):
    report = tmp_path / "cross.json"
    assert verify_main(["crosscheck", "--seeds", "3",
                        "--profile", "quick", "--json", str(report)]) == 0
    assert "zero oracle disagreements" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["ok"] and payload["checked"] == 3


def test_crosscheck_mode_corpus(capsys):
    assert verify_main(["crosscheck", "--corpus-dir", "tests/verify/data",
                        "--limit", "3"]) == 0
    assert "3 plans" in capsys.readouterr().out


@pytest.mark.parametrize("records", [[], [{"type": "seed", "seed": 1,
                                             "profile": "quick",
                                             "valid": False}]],
                         ids=["empty", "no-valid-seed"])
def test_crosscheck_corpus_with_nothing_to_replay_is_an_error(tmp_path,
                                                              capsys,
                                                              records):
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records))
    assert verify_main(["crosscheck", "--corpus-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "zero oracle disagreements" not in captured.out


def test_top_level_dispatch(capsys):
    assert repro_main(["verify", "target", "spectre-pht"]) == 0
    out = capsys.readouterr().out
    assert "LEAK  [ok]" in out and "secret bytes [0]" in out
