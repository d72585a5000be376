"""The golden record's coverage, and the nightly grids checked against it.

The record (:mod:`tests.fastpath.golden`) covers four groups of cells:

* ``grid/...``: every workload x UnsafeBaseline and the Figure 7
  configurations x both attack models at budget 2000, cells of the
  nightly ``repro check`` grid;
* ``smoke/...``: mcf and chacha20 x the four smoke configurations x both
  attack models at budget 3000, cells of ``repro check --smoke``;
* ``vector/...``: every cell of ``test_vector_differential``;
* ``micro/...``: every micro-program cell of ``test_batched_core``.

Tier-1 checks the last two inside the tests that simulate them; the two
grids are checked here, by the slow tests the nightly job runs
(``pytest tests/fastpath/test_golden_record.py --run-slow``).  To rewrite
the record from the current reference run, call :func:`regenerate`::

    PYTHONPATH=src python -c \\
        "from tests.fastpath.test_golden_record import regenerate; regenerate()"
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.check.diff import run_cell
from repro.harness.configs import BOTH_MODELS, FIGURE7_ORDER
from repro.workloads.registry import WORKLOADS

from tests.fastpath import golden, test_batched_core, test_vector_differential

GRIDS = {
    "grid": (sorted(WORKLOADS), ["UnsafeBaseline", *FIGURE7_ORDER], 2000),
    "smoke": (("mcf", "chacha20"),
              ("UnsafeBaseline", "SecureBaseline", "STT", "SPT{Bwd,ShadowL1}"),
              3000),
}


def grid_cells(group: str) -> list:
    """``(key, workload, config, model, budget)`` for one grid."""
    workloads, configs, budget = GRIDS[group]
    return [(f"{group}/{workload}/{config}/{model.value}",
             workload, config, model, budget)
            for workload in workloads
            for config in configs
            for model in BOTH_MODELS]


def golden_cells() -> dict:
    """Every record key, with a thunk computing its reference outcome."""
    cells = {key: partial(run_cell, workload, config, model, 1, budget,
                          reference=True)
             for group in GRIDS
             for key, workload, config, model, budget in grid_cells(group)}
    cells.update(test_vector_differential.golden_cells())
    cells.update(test_batched_core.golden_cells())
    return cells


def regenerate() -> None:
    """Rewrite the record from the reference run of every cell."""
    golden.write({key: golden.digest(thunk())
                  for key, thunk in golden_cells().items()})


def test_record_covers_exactly_the_golden_cells():
    assert set(golden.load()) == set(golden_cells())
    assert len(grid_cells("grid")) == 320
    assert len(grid_cells("smoke")) == 16


@pytest.mark.slow
@pytest.mark.parametrize("group", sorted(GRIDS))
def test_default_runs_match_the_record(group):
    problems = []
    for key, workload, config, model, budget in grid_cells(group):
        problems += golden.mismatches(
            key, run_cell(workload, config, model, 1, budget))
    assert not problems, "\n".join(problems)
