"""Unit tests for the Table 2 configuration registry."""

import pytest

from repro.core.attack_model import AttackModel
from repro.core.shadow_l1 import ShadowMode
from repro.core.spt import SPTEngine
from repro.harness.configs import (CONFIGURATIONS, FIGURE7_ORDER, FULL_SPT,
                                   SECURE_CONFIGS, SPT_CONFIGS, make_engine,
                                   table2_text)


def test_all_table2_rows_present():
    expected = {"UnsafeBaseline", "SecureBaseline", "SPT{Fwd,NoShadowL1}",
                "SPT{Bwd,NoShadowL1}", "SPT{Bwd,ShadowL1}",
                "SPT{Bwd,ShadowMem}", "SPT{Ideal,ShadowMem}", "STT"}
    assert set(CONFIGURATIONS) == expected


def test_engine_names_match_config_names():
    for name in CONFIGURATIONS:
        engine = make_engine(name, AttackModel.FUTURISTIC)
        assert engine.name == name


def test_full_spt_is_bwd_shadowl1():
    engine = make_engine(FULL_SPT, AttackModel.SPECTRE)
    assert isinstance(engine, SPTEngine)
    assert engine.backward and not engine.ideal
    assert engine.shadow_mode == ShadowMode.L1


def test_spt_variant_knobs():
    fwd = make_engine("SPT{Fwd,NoShadowL1}", AttackModel.SPECTRE)
    assert not fwd.backward and fwd.shadow_mode == ShadowMode.NONE
    ideal = make_engine("SPT{Ideal,ShadowMem}", AttackModel.SPECTRE)
    assert ideal.ideal and ideal.backward
    assert ideal.shadow_mode == ShadowMode.FULL_MEMORY


def test_figure7_order_excludes_unsafe():
    assert "UnsafeBaseline" not in FIGURE7_ORDER
    assert set(FIGURE7_ORDER) <= set(CONFIGURATIONS)


def test_secure_and_spt_groupings():
    assert "UnsafeBaseline" not in SECURE_CONFIGS
    assert all(name.startswith("SPT") for name in SPT_CONFIGS)
    assert len(SPT_CONFIGS) == 5


def test_engines_are_fresh_instances():
    a = make_engine(FULL_SPT, AttackModel.SPECTRE)
    b = make_engine(FULL_SPT, AttackModel.SPECTRE)
    assert a is not b


def test_table2_text_lists_everything():
    text = table2_text()
    for name in CONFIGURATIONS:
        assert name in text


def test_unknown_config_raises():
    with pytest.raises(KeyError):
        make_engine("SPT{Quantum}", AttackModel.SPECTRE)


def test_parse_config_names_handles_brace_commas():
    from repro.harness.configs import parse_config_names
    assert parse_config_names("UnsafeBaseline,SPT{Bwd,ShadowL1},STT") == \
        ["UnsafeBaseline", "SPT{Bwd,ShadowL1}", "STT"]
    assert parse_config_names("all") == list(CONFIGURATIONS)
    with pytest.raises(SystemExit, match="unknown configuration"):
        parse_config_names("SPT{Bwd")
    with pytest.raises(SystemExit, match="unknown configuration"):
        parse_config_names("NotAConfig")
    with pytest.raises(SystemExit, match="selected nothing"):
        parse_config_names(",")
