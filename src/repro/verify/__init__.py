"""Relational leak checker: bounded symbolic speculative non-interference.

``repro.verify`` proves (up to explicit speculation bounds) or refutes (with
a concrete witness) that a program's attacker-visible behaviour is
independent of its secrets — over *all* secret values, where the concrete
fuzz oracle samples pairs.  See DESIGN.md §7 for the soundness argument.

Layers:

* :mod:`repro.verify.expr` — the symbolic term language + simplifier;
* :mod:`repro.verify.symmem` — byte-granular symbolic memory;
* :mod:`repro.verify.explorer` — always-mispredict bounded symbolic
  execution over the shared semantics tables;
* :mod:`repro.verify.selfcomp` — the self-composition check + witnesses;
* :mod:`repro.verify.targets` — named subjects (crypto kernels, attack
  gadgets, fuzz plans);
* :mod:`repro.verify.crosscheck` — agreement testing against the concrete
  fuzz oracle;
* :mod:`repro.verify.cli` — the ``repro verify`` command.
"""

from repro.verify.selfcomp import (CheckResult, LeakWitness, check_program,
                                   reflexive_check)
from repro.verify.targets import (TARGETS, SecretLayout, check_plan,
                                  make_symbolic_memory, verify_target)

__all__ = [
    "CheckResult", "LeakWitness", "check_program", "reflexive_check",
    "TARGETS", "SecretLayout", "check_plan", "make_symbolic_memory",
    "verify_target",
]
