"""The evaluated design variants (paper Table 2), and the argparse types
every sweep command parses its configurations, attack models, workloads
and sizes with."""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from typing import Callable

from repro.core.attack_model import AttackModel
from repro.core.baselines import SecureBaseline, UnsafeBaseline
from repro.core.shadow_l1 import ShadowMode
from repro.core.spt import SPTEngine
from repro.core.stt import STTEngine
from repro.pipeline.engine_api import ProtectionEngine
from repro.workloads.registry import WORKLOADS, get as get_workload


@dataclass(frozen=True)
class Configuration:
    """One Table 2 row: a named engine factory."""

    name: str
    description: str
    make: Callable[[AttackModel], ProtectionEngine]
    needs_model: bool = True


def _unsafe(model: AttackModel) -> ProtectionEngine:
    return UnsafeBaseline()


def _spt(untaint: str, shadow: ShadowMode) -> Callable:
    return lambda model: SPTEngine(model, backward=untaint != "Fwd",
                                   shadow=shadow, ideal=untaint == "Ideal")


# Every SPT design point: an untaint method (forward only, forward and
# backward, ideal) and a shadow scope.  Table 2 evaluates five of them;
# ``make_engine`` builds all nine.
SPT_ENGINES: dict[str, Callable[[AttackModel], ProtectionEngine]] = {
    f"SPT{{{untaint},{scope}}}": _spt(untaint, shadow)
    for untaint in ("Fwd", "Bwd", "Ideal")
    for scope, shadow in (("NoShadowL1", ShadowMode.NONE),
                          ("ShadowL1", ShadowMode.L1),
                          ("ShadowMem", ShadowMode.FULL_MEMORY))
}

CONFIGURATIONS: dict[str, Configuration] = {
    "UnsafeBaseline": Configuration(
        "UnsafeBaseline", "An unmodified, insecure processor.",
        _unsafe, needs_model=False),
    "SecureBaseline": Configuration(
        "SecureBaseline", "Loads and stores delayed until reaching the VP.",
        SecureBaseline),
    "SPT{Fwd,NoShadowL1}": Configuration(
        "SPT{Fwd,NoShadowL1}",
        "Forward untainting only (in RS). No shadow L1.",
        SPT_ENGINES["SPT{Fwd,NoShadowL1}"]),
    "SPT{Bwd,NoShadowL1}": Configuration(
        "SPT{Bwd,NoShadowL1}",
        "Forward and backward untainting (in RS). No shadow L1.",
        SPT_ENGINES["SPT{Bwd,NoShadowL1}"]),
    "SPT{Bwd,ShadowL1}": Configuration(
        "SPT{Bwd,ShadowL1}",
        "Forward and backward untainting (in RS) plus shadow L1 "
        "(L1D taint tracking). The full SPT design.",
        SPT_ENGINES["SPT{Bwd,ShadowL1}"]),
    "SPT{Bwd,ShadowMem}": Configuration(
        "SPT{Bwd,ShadowMem}",
        "Forward and backward untainting (in RS) plus all-memory taint "
        "tracking.",
        SPT_ENGINES["SPT{Bwd,ShadowMem}"]),
    "SPT{Ideal,ShadowMem}": Configuration(
        "SPT{Ideal,ShadowMem}",
        "Ideal forward and backward untainting (in RS) plus all-memory "
        "taint tracking.",
        SPT_ENGINES["SPT{Ideal,ShadowMem}"]),
    "STT": Configuration(
        "STT", "Only protects speculatively-accessed data.",
        STTEngine),
}

# The full SPT design referenced throughout the evaluation.
FULL_SPT = "SPT{Bwd,ShadowL1}"

# Figure 7 plots every configuration in this order.
FIGURE7_ORDER = [
    "SecureBaseline",
    "SPT{Fwd,NoShadowL1}",
    "SPT{Bwd,NoShadowL1}",
    "SPT{Bwd,ShadowL1}",
    "SPT{Bwd,ShadowMem}",
    "SPT{Ideal,ShadowMem}",
    "STT",
]

SECURE_CONFIGS = [name for name in CONFIGURATIONS if name != "UnsafeBaseline"]
SPT_CONFIGS = [name for name in CONFIGURATIONS if name.startswith("SPT")]


# The two attack models, in the order every sweep runs them.
BOTH_MODELS = (AttackModel.SPECTRE, AttackModel.FUTURISTIC)
MODELS_HELP = ("attack models: both, or a comma-separated list of "
               "spectre, futuristic (default both)")

# The argparse types below turn a bad value into a usage error (exit 2).


def at_least_one(text: str) -> int:
    """An integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def at_least_zero(text: str) -> int:
    """An integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def finite_at_least_zero(text: str) -> float:
    """A finite number of at least 0 (NaN would pass every comparison)."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of at least 0, got {text}")
    return value


def workload_name(text: str) -> str:
    """A workload name the registry resolves, dynamic names included."""
    try:
        get_workload(text)
    except KeyError as error:
        raise argparse.ArgumentTypeError(error.args[0]) from None
    return text


def _known(parts, known, what: str) -> list:
    """The non-blank ``parts``, stripped, each of which must be in
    ``known``; an empty selection is an error too."""
    names = [part.strip() for part in parts if part.strip()]
    for name in names:
        if name not in known:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {name!r}; known: {', '.join(known)}")
    if not names:
        raise argparse.ArgumentTypeError("selected nothing")
    return names


def parse_config_names(text: str) -> list:
    """Split a comma-separated ``--configs`` value into Table 2 names.

    Configuration names themselves contain commas (``SPT{Bwd,ShadowL1}``),
    so fragments are re-merged until their braces balance.  ``"all"``
    selects every configuration.
    """
    if text == "all":
        return list(CONFIGURATIONS)
    names: list = []
    pending = ""
    for part in text.split(","):
        pending = f"{pending},{part}" if pending else part
        if pending.count("{") == pending.count("}"):
            names.append(pending)
            pending = ""
    return _known(names + [pending], list(CONFIGURATIONS), "configuration")


def parse_models(text: str) -> list:
    """``both``, or a comma-separated list of attack-model names."""
    if text == "both":
        return list(BOTH_MODELS)
    return [AttackModel(name) for name in _known(
        text.split(","), [m.value for m in AttackModel], "attack model")]


def parse_workloads(text: str) -> list:
    """A comma-separated list of registered workload names."""
    return _known(text.split(","), sorted(WORKLOADS), "workload")


def make_engine(name: str, model: AttackModel) -> ProtectionEngine:
    """Instantiate the engine for a configuration name: a Table 2 row, or
    any SPT design point of :data:`SPT_ENGINES`."""
    config = CONFIGURATIONS.get(name)
    if config is None:
        return SPT_ENGINES[name](model)
    return config.make(model)


def table2_text() -> str:
    """Render Table 2."""
    width = max(len(c.name) for c in CONFIGURATIONS.values())
    lines = [f"{'Configuration':<{width}}  Description",
             "-" * (width + 50)]
    for config in CONFIGURATIONS.values():
        lines.append(f"{config.name:<{width}}  {config.description}")
    return "\n".join(lines)
