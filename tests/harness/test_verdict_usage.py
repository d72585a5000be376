"""The usage-error contract of the command line.

``repro check``, ``repro pentest`` and ``repro fuzz`` parse their grid
through :mod:`repro.harness.configs`; the artifact CLI, ``repro bench``
and ``repro verify`` parse their size flags with its ``at_least_one``
(``verify``'s speculation bounds and ``fuzz --patience`` with
``at_least_zero``, ``bench compare``'s tolerances and ``cache gc
--tmp-age`` with ``finite_at_least_zero``), and ``repro stats`` its
workload with ``workload_name``.  A size below 1, a negative bound,
tolerance or age, a NaN tolerance or age, a ``verify`` plan file or
corpus directory that is not there, or an unknown workload,
configuration or attack model must exit 2 with a usage message before
anything runs, and leave no file behind: exit 1 is a failed verdict, and
a silently corrected value is a verdict about some other grid.
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
    ("pentest", "--jobs", "0"),
    ("pentest", "--configs", "Nope"),
    ("pentest", "--models", "quantum"),
    ("fuzz", "--seeds", "0"),
    ("fuzz", "--jobs", "0"),
    ("fuzz", "--max-instructions", "-5"),
    ("fuzz", "--adversarial", "--budget", "0"),
    ("fuzz", "--adversarial", "--patience", "-1"),
    ("fuzz", "--configs", "Nope"),
    ("fuzz", "--models", "quantum"),
    ("mcf", "--jobs", "0"),
    ("mcf", "--untaint-broadcast-width", "0"),
    ("mcf", "--max-instructions", "0"),
    ("mcf", "--scale", "0"),
    ("bench", "record", "--budget", "0"),
    ("bench", "record", "--scale", "0"),
    ("bench", "record", "--jobs", "0"),
    ("bench", "record", "--reps", "0"),
    ("bench", "profile", "--budget", "0"),
    ("bench", "profile", "--scale", "0"),
    ("bench", "profile", "--runs", "0"),
    ("bench", "compare", "a.json", "b.json", "--overhead-tolerance", "nan"),
    ("bench", "compare", "a.json", "b.json", "--stall-tolerance", "nan"),
    ("bench", "compare", "a.json", "b.json", "--throughput-tolerance",
     "-0.5"),
    ("bench", "compare", "a.json", "b.json", "--overhead-tolerance", "-0.5"),
    ("cache", "gc", "--tmp-age", "nan"),
    ("cache", "gc", "--tmp-age", "-1"),
    ("verify", "target", "chacha20", "--scale", "0"),
    ("verify", "target", "--max-instructions", "0"),
    ("verify", "target", "--max-explored", "0"),
    ("verify", "target", "--max-leaks", "0"),
    ("verify", "plan", "--seeds", "0"),
    ("verify", "crosscheck", "--seeds", "0"),
    ("verify", "crosscheck", "--limit", "0"),
    ("verify", "crosscheck", "--corpus-dir", "no-such-corpus"),
    ("verify", "plan-file", "no-such-plan.json"),
    ("verify", "target", "--spec-window", "-1"),
    ("verify", "target", "--spec-depth", "-1"),
    ("stats", "nope"),
]

# A positional argument is named by its metavar or destination, not a flag.
POSITIONAL = {("stats", "nope"): "workload",
              ("verify", "plan-file", "no-such-plan.json"): "path"}


@pytest.fixture
def no_simulation(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a usage error must stop before simulating")

    monkeypatch.setattr(OoOCore, "__init__", refuse)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_usage_error_exits_2_before_simulating(argv, no_simulation, capsys,
                                               tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"error: argument {POSITIONAL.get(argv, argv[-2])}:" in err
    assert list(tmp_path.iterdir()) == []
