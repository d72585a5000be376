"""The usage-error contract of the four verdict commands.

``repro check``, ``repro backend-diff``, ``repro pentest`` and ``repro fuzz``
parse their grid through :mod:`repro.harness.configs`.  A size below 1 or an
unknown workload, configuration or attack model must exit 2 with a usage
message before anything simulates: exit 1 is a failed verdict, and a
silently corrected value is a verdict about some other grid.
"""

import pytest

from repro.cli import main
from repro.pipeline.core import OoOCore

CASES = [
    ("check", "--budget", "-5"),
    ("check", "--budget", "0"),
    ("check", "--jobs", "0"),
    ("check", "--workloads", "nope"),
    ("check", "--configs", "Nope"),
    ("check", "--models", "quantum"),
    ("backend-diff", "--budget", "-5"),
    ("backend-diff", "--scale", "0"),
    ("backend-diff", "--workloads", "nope"),
    ("backend-diff", "--configs", "Nope"),
    ("backend-diff", "--models", "quantum"),
    ("pentest", "--jobs", "0"),
    ("pentest", "--configs", "Nope"),
    ("pentest", "--models", "quantum"),
    ("fuzz", "--seeds", "0"),
    ("fuzz", "--jobs", "0"),
    ("fuzz", "--max-instructions", "-5"),
    ("fuzz", "--adversarial", "--budget", "0"),
    ("fuzz", "--configs", "Nope"),
    ("fuzz", "--models", "quantum"),
]


@pytest.fixture
def no_simulation(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a usage error must stop before simulating")

    monkeypatch.setattr(OoOCore, "__init__", refuse)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_usage_error_exits_2_before_simulating(argv, no_simulation, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"error: argument {argv[-2]}:" in err
