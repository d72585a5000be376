"""Cross-checking the symbolic checker against the concrete fuzz oracle.

The two oracles answer related but distinct questions:

* the **concrete** oracle samples a secret pair and diffs attacker-trace
  digests under a real pipeline with real predictors;
* the **symbolic** checker decides non-interference for *all* secret values
  under the always-mispredict speculation semantics, which over-approximates
  every concrete predictor.

So agreement is implication-shaped, not equality-shaped:

==============================  ========================================
concrete diverged, symbolic     **missed-leak** — a disagreement.  The
``safe`` (complete)             concrete machine only diverges when some
                                access/branch/target differs across
                                secrets (cache state, hit levels and
                                timing are functions of that sequence),
                                and always-mispredict explores a superset
                                of any predictor's transient paths.
concrete clean, symbolic        **phantom-architectural-leak** — a
``leak`` with a *confirmed      disagreement: a depth-0 observation means
architectural* (depth-0)        the *committed* trace distinguishes some
witness                         secret pair, contradicting the
                                generator's architectural-independence
                                invariant that the concrete oracle
                                validated.
concrete clean, symbolic        **unconfirmed-witness** — a disagreement:
``leak``, no witness confirmed  the checker claims a leak but cannot
                                exhibit a distinguishing secret pair.
concrete clean, symbolic        **agree** — the expected over-
``leak`` with confirmed         approximation: the concrete predictor
*speculative* witnesses         simply didn't mispredict that way (or the
                                sampled pair didn't exercise the leak).
anything, symbolic ``unknown``  **inconclusive** — bounds/budget too
                                small; counted, never failed.
==============================  ========================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.attack_model import AttackModel
from repro.fuzz.corpus import Corpus
from repro.fuzz.generator import generate_plan, render, secret_pair
from repro.fuzz.oracle import FUZZ_BUDGET, check_pair_direct
from repro.verify.selfcomp import CheckResult
from repro.verify.targets import check_plan

AGREE = "agree"
MISSED_LEAK = "missed-leak"
PHANTOM_ARCH = "phantom-architectural-leak"
UNCONFIRMED = "unconfirmed-witness"
INCONCLUSIVE = "inconclusive"

DISAGREEMENTS = (MISSED_LEAK, PHANTOM_ARCH, UNCONFIRMED)


@dataclass(frozen=True)
class CrossCheckRecord:
    """Both oracles' verdicts for one plan, and how they relate."""

    seed: int
    profile: str
    symbolic: str               # the checker's verdict
    concrete_diverged: bool     # UnsafeBaseline saw differing channels
    channels: tuple             # which channels (possibly from the corpus)
    classification: str         # AGREE / MISSED_LEAK / ... above
    detail: str = ""

    @property
    def disagreement(self) -> bool:
        return self.classification in DISAGREEMENTS

    def to_json(self) -> dict:
        return {"seed": self.seed, "profile": self.profile,
                "symbolic": self.symbolic,
                "concrete_diverged": self.concrete_diverged,
                "channels": list(self.channels),
                "classification": self.classification,
                "detail": self.detail}


@dataclass
class CrossCheckReport:
    """Outcome of one cross-check sweep."""

    records: list = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def disagreements(self) -> list:
        return [r for r in self.records if r.disagreement]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def counts(self) -> dict:
        tally: dict = {}
        for record in self.records:
            tally[record.classification] = \
                tally.get(record.classification, 0) + 1
        return tally

    def to_json(self) -> dict:
        return {"checked": len(self.records), "ok": self.ok,
                "counts": self.counts(),
                "wall_seconds": round(self.wall_seconds, 3),
                "records": [r.to_json() for r in self.records]}


def classify_agreement(symbolic: CheckResult,
                       concrete_diverged: bool) -> tuple:
    """(classification, detail) for one oracle pair — the table above."""
    if symbolic.verdict == "unknown":
        return INCONCLUSIVE, "symbolic exploration incomplete"
    if symbolic.verdict == "safe":
        if concrete_diverged:
            return (MISSED_LEAK,
                    "concrete oracle diverged but the complete symbolic "
                    "exploration found no secret-dependent observation")
        return AGREE, ""
    # symbolic == "leak"
    if concrete_diverged:
        return AGREE, ""
    confirmed = [w for w in symbolic.witnesses if w.confirmed]
    if not confirmed:
        return (UNCONFIRMED,
                "symbolic leak but no witness has a distinguishing "
                "concrete secret pair")
    architectural = [w for w in confirmed if w.depth == 0]
    if architectural:
        first = architectural[0]
        return (PHANTOM_ARCH,
                f"confirmed depth-0 witness at pc={first.pc} "
                f"({first.kind}) but the committed concrete traces agree")
    return AGREE, "speculative-only leak; concrete predictor not mistrained"


def cross_check_plan(plan, *, secrets: Optional[tuple] = None,
                     model: AttackModel = AttackModel.SPECTRE,
                     max_instructions: int = FUZZ_BUDGET,
                     **bounds) -> CrossCheckRecord:
    """Run both oracles on one plan and judge whether they agree.

    The concrete side diffs the plan's deterministic secret pair under
    ``UnsafeBaseline`` (protection-free, so every real leak is visible;
    its verdicts are also attack-model-independent in this simulator).
    """
    symbolic = check_plan(plan, **bounds)
    if secrets is None:
        secrets = secret_pair(plan.seed)
    channels = check_pair_direct(
        render(plan, secrets[0]), render(plan, secrets[1]),
        "UnsafeBaseline", model, max_instructions=max_instructions)
    classification, detail = classify_agreement(symbolic, bool(channels))
    return CrossCheckRecord(plan.seed, plan.profile, symbolic.verdict,
                            bool(channels), tuple(channels),
                            classification, detail)


def cross_check_seeds(count: int, profile: str = "quick", *,
                      seed_start: int = 0,
                      model: AttackModel = AttackModel.SPECTRE,
                      max_instructions: int = FUZZ_BUDGET,
                      **bounds) -> CrossCheckReport:
    """Cross-check ``count`` freshly generated plans of one profile."""
    start = time.perf_counter()
    report = CrossCheckReport()
    for seed in range(seed_start, seed_start + count):
        plan = generate_plan(seed, profile)
        report.records.append(cross_check_plan(
            plan, model=model, max_instructions=max_instructions, **bounds))
    report.wall_seconds = time.perf_counter() - start
    return report


def cross_check_corpus(corpus: Corpus, *, limit: Optional[int] = None,
                       **bounds) -> CrossCheckReport:
    """Replay a fuzz corpus through the symbolic checker.

    The concrete verdicts come from the corpus records themselves (the
    campaign already simulated every cell); only the symbolic side runs
    fresh.  ``UnsafeBaseline`` cells across all attack models stand in for
    "did the concrete oracle see this plan leak".
    """
    start = time.perf_counter()
    report = CrossCheckReport()
    pairs = corpus.replayable()
    if limit is not None:
        pairs = pairs[:limit]
    for record, plan in pairs:
        unsafe_cells = [c for c in record.get("cells", ())
                        if c.get("config") == "UnsafeBaseline"]
        channels: list = []
        for cell in unsafe_cells:
            for channel in cell.get("channels", ()):
                if channel not in channels:
                    channels.append(channel)
        symbolic = check_plan(plan, **bounds)
        classification, detail = classify_agreement(symbolic,
                                                    bool(channels))
        report.records.append(CrossCheckRecord(
            plan.seed, plan.profile, symbolic.verdict, bool(channels),
            tuple(channels), classification, detail))
    report.wall_seconds = time.perf_counter() - start
    return report
