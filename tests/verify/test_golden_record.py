"""The checker's outputs held to the golden record.

The record (:mod:`tests.verify.golden`) covers three groups of checks:

* ``target/<name>/<scale>/<bounds>``: every named target at four bound
  settings (the defaults, and ``spec_window``/``spec_depth`` of 8/1,
  64/2 and 0/0), at scales 1 and 4 in tier-1 and 16 and 128 in the slow
  test;
* ``plan/<profile>/<seed>``: fuzz plans of all four generator profiles,
  the first seeds of each in tier-1 and the next ones in the slow test;
* ``reflexive/...``: :func:`~repro.verify.selfcomp.reflexive_check` on the
  targets at scale 1 and on the first plans of three profiles.

The nightly job runs the slow half (``pytest --run-slow
tests/verify/test_golden_record.py``).  To rewrite the record from the
current checker, only for a change meant to move its outputs::

    PYTHONPATH=src python -c \\
        "from tests.verify.test_golden_record import regenerate; regenerate()"
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.fuzz.generator import generate_plan
from repro.verify import (TARGETS, check_plan, make_symbolic_memory,
                          reflexive_check, verify_target)
from repro.verify.targets import plan_target

from tests.verify import golden

BOUNDS = {
    "default": {},
    "w8-d1": {"spec_window": 8, "spec_depth": 1},
    "w64-d2": {"spec_window": 64, "spec_depth": 2},
    "w0-d0": {"spec_window": 0, "spec_depth": 0},
}
SCALES = {"tier1": (1, 4), "slow": (16, 128)}
PLANS = {
    "tier1": {"quick": range(0, 100), "default": range(0, 50),
              "deep": range(0, 20), "hard": range(0, 50)},
    "slow": {"quick": range(100, 400), "default": range(50, 200),
             "deep": range(20, 60), "hard": range(50, 150)},
}
REFLEXIVE_PLANS = {"quick": range(5), "default": range(5), "deep": range(5)}


def _reflexive_target(name: str):
    program, layout = TARGETS[name].build(1)
    return reflexive_check(program, make_symbolic_memory(program, layout))


def _reflexive_plan(profile: str, seed: int):
    program, layout = plan_target(generate_plan(seed, profile))
    return reflexive_check(program, make_symbolic_memory(program, layout))


def golden_cells(group: str) -> dict:
    """Every record key of ``group`` with a thunk computing its result."""
    cells = {f"target/{name}/{scale}/{label}":
             partial(verify_target, name, scale, **bounds)
             for scale in SCALES[group]
             for label, bounds in BOUNDS.items()
             for name in TARGETS}
    cells.update({f"plan/{profile}/{seed}":
                  partial(check_plan, generate_plan(seed, profile))
                  for profile, seeds in PLANS[group].items()
                  for seed in seeds})
    if group == "tier1":
        cells.update({f"reflexive/target/{name}":
                      partial(_reflexive_target, name) for name in TARGETS})
        cells.update({f"reflexive/plan/{profile}/{seed}":
                      partial(_reflexive_plan, profile, seed)
                      for profile, seeds in REFLEXIVE_PLANS.items()
                      for seed in seeds})
    return cells


def regenerate() -> None:
    """Rewrite the record from the current checker, both groups."""
    golden.write({key: golden.digest(thunk())
                  for group in SCALES
                  for key, thunk in golden_cells(group).items()})


def _check(group: str) -> None:
    problems = []
    for key, thunk in golden_cells(group).items():
        problems += golden.mismatches(key, thunk())
    assert not problems, "\n".join(problems)


def test_record_covers_exactly_the_golden_cells():
    tier1, slow = golden_cells("tier1"), golden_cells("slow")
    assert len(tier1) == 280
    assert set(golden.load()) == set(tier1) | set(slow)


def test_checks_match_the_record():
    _check("tier1")


@pytest.mark.slow
def test_slow_checks_match_the_record():
    _check("slow")
