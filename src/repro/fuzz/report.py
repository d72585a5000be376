"""Campaign summary: triage counts and the pass/fail verdict.

Rendered in the style of :mod:`repro.harness.report` (fixed-width ASCII
tables), because a fuzz campaign is an experiment like any figure sweep —
its output lands in terminals, CI logs, and bench trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.report import format_table
from repro.security.observer import CHANNELS


@dataclass
class FuzzReport:
    """Everything a campaign learned, plus the verdict."""

    profile: str
    seeds_requested: int
    configs: list
    models: list
    cells_checked: int = 0
    divergences_by_config: dict = field(default_factory=dict)
    divergences_by_channel: dict = field(default_factory=dict)
    unsafe_divergences: int = 0     # the oracle sanity signal
    invalid_seeds: list = field(default_factory=list)   # generator breakage
    counterexamples: list = field(default_factory=list)  # corpus records
    wall_seconds: float = 0.0
    # Core runs the campaign made (cache hits make none; a counterexample's
    # detail and minimiser runs count too), the secret pairs one paired
    # run served, and the pairs that ran separately, by the steering site
    # (or other reason) that split them.
    simulations: int = 0
    paired_runs: int = 0
    fallbacks: dict = field(default_factory=dict)

    @property
    def sanity_ok(self) -> bool:
        """A campaign where UnsafeBaseline never leaks cannot be trusted.

        Only meaningful when UnsafeBaseline was part of the sweep.
        """
        if "UnsafeBaseline" not in self.configs:
            return True
        return self.unsafe_divergences > 0

    @property
    def ok(self) -> bool:
        return (not self.counterexamples and not self.invalid_seeds
                and self.sanity_ok)


def render_simulations(report: FuzzReport) -> str:
    """One line: the simulations behind the report and why pairs split."""
    pairs = report.paired_runs + sum(report.fallbacks.values())
    split = ", ".join(f"{site} {count}"
                      for site, count in sorted(report.fallbacks.items()))
    return (f"simulations: {report.simulations} for {pairs} secret pairs "
            f"({report.paired_runs} paired; "
            f"{sum(report.fallbacks.values())} ran separately"
            + (f": {split})" if split else ")"))


def render_report(report: FuzzReport) -> str:
    """The campaign's terminal summary."""
    lines = [
        f"fuzz campaign: profile={report.profile} "
        f"seeds={report.seeds_requested}, "
        f"{report.cells_checked} oracle cells, "
        f"{report.wall_seconds:.1f}s",
        render_simulations(report),
        "",
    ]
    rows = []
    for config in report.configs:
        count = report.divergences_by_config.get(config, 0)
        expected = "expected" if config == "UnsafeBaseline" else (
            "scope gap" if config == "STT" and count else "")
        rows.append([config, count, expected])
    lines.append(format_table(["Configuration", "Divergent cells", "Note"],
                              rows, title="Divergences by configuration"))
    lines.append("")
    channel_rows = [[c, report.divergences_by_channel.get(c, 0)]
                    for c in CHANNELS
                    if report.divergences_by_channel.get(c, 0)]
    if channel_rows:
        lines.append(format_table(["Channel", "Divergent cells"],
                                  channel_rows, title="Triage by channel"))
        lines.append("")
    if report.invalid_seeds:
        lines.append(f"GENERATOR INVARIANT BROKEN on seeds "
                     f"{report.invalid_seeds} (architectural divergence)")
    if not report.sanity_ok:
        lines.append("ORACLE SANITY FAILURE: UnsafeBaseline never diverged "
                     "— the campaign cannot have found real leaks")
    if report.counterexamples:
        lines.append(f"{len(report.counterexamples)} COUNTEREXAMPLE(S):")
        for ce in report.counterexamples:
            lines.append(
                f"  seed={ce['seed']} {ce['config']}/{ce['model']} "
                f"channels={','.join(ce['channels'])} "
                f"instructions={ce.get('instructions', '?')}"
                + (f" minimised={ce['minimized_instructions']}"
                   if "minimized_instructions" in ce else ""))
    else:
        lines.append("no counterexamples: every secure configuration held "
                     "non-interference on every generated victim")
    return "\n".join(lines)
