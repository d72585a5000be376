"""Automated leakage-fuzzing campaigns (design-time security validation).

The scenario matrix (:mod:`repro.security.scenarios`, ``repro pentest``)
checks six hand-written gadgets; this package turns the repository's
strongest correctness claim — attacker-trace equivalence of the secure
configurations across secret values — into a continuously machine-checked
property, in the style of SpecFuzz/AMuLeT:

* :mod:`repro.fuzz.generator` — secret-aware random victims: deterministic
  programs whose *architectural* behaviour is secret-independent by
  construction, embedding randomized leak gadgets (bounds-check bypass,
  mis-trained indirect calls; cache-line / transient-branch / transient-loop
  transmitters) among random filler.
* :mod:`repro.fuzz.oracle` — the non-interference oracle: run each victim
  under two secrets and compare per-channel trace digests; a divergence is
  judged by the scenario matrix's rule, ``attacks.expected_to_leak``.
* :mod:`repro.fuzz.minimize` — delta-debugging of a leaking victim down to
  a minimal reproducing gadget.
* :mod:`repro.fuzz.adversarial` — a guided hill-climbing search over plans
  (``fuzz --adversarial``), judged by the same oracle and rule.
* :mod:`repro.fuzz.corpus` / :mod:`repro.fuzz.campaign` — the campaign
  driver, fanned out through ``repro.harness.parallel.run_many``, whose
  result cache serves a re-run without simulating; a persistent JSONL
  corpus records what ran.
* ``python -m repro.cli fuzz`` — the command-line front end.
"""

from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.fuzz.generator import (PROFILES, FuzzPlan, generate_plan, render,
                                  secret_pair)
from repro.fuzz.minimize import minimize_plan
from repro.fuzz.oracle import CellVerdict, check_pair_direct
from repro.fuzz.report import FuzzReport, render_report

__all__ = [
    "CampaignConfig", "run_campaign", "PROFILES", "FuzzPlan",
    "generate_plan", "render", "secret_pair", "minimize_plan",
    "CellVerdict", "check_pair_direct",
    "FuzzReport", "render_report",
]
