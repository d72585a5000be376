"""Taint-lifecycle histograms surfaced through the metrics tree.

A real SPT run must populate the taint-to-untaint latency distribution
per untaint rule and the broadcast queue-wait distribution, and those
must survive the RunResult JSON path unchanged.
"""

import pytest

from repro.core.attack_model import AttackModel
from repro.harness import cache
from repro.harness.configs import FULL_SPT
from repro.harness.runner import run_one


@pytest.fixture(scope="module")
def result():
    return run_one("mcf", FULL_SPT, model=AttackModel.FUTURISTIC,
                   max_instructions=2000)


@pytest.fixture(scope="module")
def tree(result):
    return result.metrics


def test_untaint_latency_histograms_present(result, tree):
    untaint = tree.group("engine.untaint")
    assert untaint is not None
    latency_dists = {key: hist for key, hist in untaint.dists.items()
                     if key.startswith("latency-")}
    assert latency_dists, "no taint-to-untaint latency recorded"
    observed = sum(count for hist in latency_dists.values()
                   for count in hist.values())
    # Every taint transition records exactly one latency sample, and each
    # transition is also counted once in the Figure-8 by-kind breakdown.
    assert 0 < observed <= untaint.get("total")
    assert all(bucket >= 0 for hist in latency_dists.values()
               for bucket in hist)


def test_latency_kinds_match_by_kind_counts(result, tree):
    untaint = tree.group("engine.untaint")
    for key, hist in untaint.dists.items():
        if not key.startswith("latency-"):
            continue
        kind = key[len("latency-"):]
        assert sum(hist.values()) <= untaint.get(kind), (
            f"more latency samples than untaint events for rule {kind}")


def test_broadcast_queue_wait_present(tree):
    broadcast = tree.group("engine.broadcast")
    assert broadcast is not None
    assert broadcast.get("broadcasts") > 0
    wait = broadcast.dists.get("queue_wait")
    assert wait, "no broadcast queue-wait samples recorded"
    assert sum(wait.values()) == broadcast.get("broadcasts")


def test_lifecycle_survives_json_round_trip(result):
    import json

    blob = json.loads(json.dumps(cache.result_to_blob(result)))
    rebuilt = cache.result_from_blob(blob).metrics
    assert rebuilt.flatten() == result.metrics.flatten()
