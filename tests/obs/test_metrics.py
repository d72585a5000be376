"""Unit tests for the hierarchical metrics tree (``repro.obs.metrics``)."""

import json

from repro.obs.metrics import Metrics


def sample_tree() -> Metrics:
    m = Metrics("sim")
    sim = m.child("sim")
    sim.set("cycles", 100)
    sim.set("ipc", 0.5)
    stalls = m.child("stalls")
    stalls.set("retiring", 60)
    stalls.set("memory-miss", 40)
    engine = m.child("engine")
    engine.add("broadcasts", 3)
    engine.add("broadcasts", 4)
    untaint = engine.child("untaint")
    untaint.set_dist("latency", {2: 2, 7: 1})
    return m


def test_child_is_created_once():
    m = Metrics()
    assert m.child("a") is m.child("a")
    assert m.child("a") is not m.child("b")


def test_scalar_set_add_get():
    m = Metrics()
    m.add("x")
    m.add("x", 4)
    assert m.get("x") == 5
    m.set("x", 2)
    assert m.get("x") == 2
    assert m.get("missing") == 0
    assert m.get("missing", -1) == -1


def test_set_dist_coerces_keys_to_int():
    m = Metrics()
    m.set_dist("lat", {"4": 7, 8: 1})
    assert m.dists["lat"] == {4: 7, 8: 1}


def test_flatten_dotted_keys():
    flat = sample_tree().flatten()
    assert flat["sim.cycles"] == 100
    assert flat["stalls.memory-miss"] == 40
    assert flat["engine.broadcasts"] == 7
    assert flat["engine.untaint.latency::2"] == 2
    assert flat["engine.untaint.latency::7"] == 1


def test_group_dotted_resolution():
    m = sample_tree()
    assert m.group("engine.untaint").dists["latency"][2] == 2
    assert m.group("stalls").get("retiring") == 60
    assert m.group("missing") is None
    assert m.group("engine.missing") is None
    assert m.group("missing.deeper") is None


def test_as_dict_round_trip():
    m = sample_tree()
    blob = m.as_dict()
    # The blob must survive a real JSON round-trip (the cache stores it).
    blob = json.loads(json.dumps(blob))
    rebuilt = Metrics.from_dict(blob, name="sim")
    assert rebuilt.flatten() == m.flatten()
    # Dist bucket keys come back as ints, not the JSON strings.
    assert rebuilt.group("engine.untaint").dists["latency"] == {2: 2, 7: 1}


def test_as_dict_omits_empty_sections():
    empty = Metrics()
    assert empty.as_dict() == {}
    scalar_only = Metrics()
    scalar_only.set("a", 1)
    assert set(scalar_only.as_dict()) == {"scalars"}


def test_render_gem5_style():
    text = sample_tree().render("Test Stats")
    lines = text.splitlines()
    assert lines[0].startswith("---------- Begin Test Stats")
    assert lines[-1].startswith("---------- End Test Stats")
    assert any(line.startswith("sim.cycles") and line.rstrip().endswith("#")
               for line in lines)
    # Floats render with six decimals, like gem5.
    assert any("0.500000" in line for line in lines)
