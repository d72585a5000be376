"""The invariant registry: what the sanitizer checks, and where it comes from.

Each :class:`InvariantSpec` names one cycle-level property, the paper
section that motivates it, and the minimum ``check_level`` at which it is
evaluated.  The sanitizer itself (:mod:`repro.check.sanitizer`) implements
the checks; this registry is the single source of truth for ids, so the
CLI report, the docs, and the mutation suite all agree on names.

Levels:

* ``commit`` — retire-time lockstep with the golden interpreter plus
  squash-event checks.  Linear in retired instructions.
* ``full`` — everything: per-cycle window scans (ROB ordering, VP
  frontier, taint algebra, shadow residency) and per-event gating checks.
"""

from __future__ import annotations

from dataclasses import dataclass

CHECK_LEVELS = ("off", "commit", "full")


@dataclass(frozen=True)
class InvariantSpec:
    """One checked property: id, provenance, and activation level."""

    id: str
    level: str              # "commit" or "full"
    section: str            # paper section the invariant formalises
    description: str


INVARIANTS: dict[str, InvariantSpec] = {}


def _register(id: str, level: str, section: str, description: str) -> None:
    INVARIANTS[id] = InvariantSpec(id, level, section, description)


# ----------------------------------------------------------- commit level
_register(
    "pc-sequence", "commit", "§7.1",
    "Retired PCs replay the golden interpreter's control-flow path exactly "
    "(no wrong-path instruction ever retires).")
_register(
    "reg-equality", "commit", "§7.1",
    "Every retired instruction's destination value equals the golden "
    "interpreter's result for the same dynamic instruction.")
_register(
    "mem-equality", "commit", "§7.1",
    "Every retired store writes the golden interpreter's address and "
    "value; every retired load read the golden address.")
_register(
    "lsq-forwarding", "commit", "§6.7",
    "A load served by store-to-load forwarding retires with the value the "
    "golden memory image holds at that point of the program order.")
_register(
    "retire-order", "commit", "§7.1",
    "Retirement pops the ROB head, in strictly increasing sequence-number "
    "order, and never retires a squashed instruction.")
_register(
    "squash-complete", "commit", "§7.1",
    "A squash removes every instruction younger than its anchor from the "
    "ROB, LSQ, and pending-control list, frees their reservation-station "
    "entries, and clears the fetch buffer.")
_register(
    "final-state", "commit", "§7.1",
    "At HALT the drained pipeline's architectural registers and memory "
    "image equal the golden interpreter's final state.")

# -------------------------------------------------------------- full level
_register(
    "rob-age-order", "full", "§7.1",
    "The reorder buffer is age-ordered: in-flight sequence numbers are "
    "strictly increasing from head to tail, with no squashed residue in "
    "the ROB, RS, LSQ, or pending-control structures.")
_register(
    "vp-frontier", "full", "§5, §7.3",
    "The visibility-point frontier matches an independent recomputation "
    "from the attack model's obstacle predicate: reached_vp holds exactly "
    "for the program-order prefix through the first obstacle.")
_register(
    "vp-declassify", "full", "§6.6",
    "No in-flight instruction is declassified (operands untainted as "
    "attacker-inferable) while it is still transient — declassification "
    "happens at or after the visibility point only.")
_register(
    "gated-transmitter", "full", "§4, §7.2",
    "No transmitter computes its address or touches the cache hierarchy "
    "while the protection engine's gating predicate holds (tainted "
    "address operand, pre-VP under SecureBaseline).")
_register(
    "gated-resolution", "full", "§4, §6.6",
    "No branch or indirect jump applies its resolution side effects "
    "(predictor update, squash) while its predicate operands are tainted "
    "and it has not reached the visibility point.")
_register(
    "stl-visibility", "full", "§6.7",
    "A forwarded load skips its cache access only once the forwarding "
    "decision is public (STLPublic under SPT; both ends at the VP under "
    "STT).")
_register(
    "taint-init", "full", "§6.3, §6.5",
    "Rename-time taint matches the taint algebra: source bits mirror the "
    "register taint vector and the output bit equals "
    "initial_output_taint (loads tainted, PC-inferable outputs public).")
_register(
    "taint-monotonic", "full", "§6.6, §7.3",
    "No physical register transitions tainted -> untainted outside an "
    "accounted untaint broadcast or a rename reallocation; registers "
    "never become tainted except at rename.")
_register(
    "broadcast-width", "full", "§7.3",
    "At most untaint_broadcast_width registers are untainted per cycle "
    "(non-ideal SPT configurations).")
_register(
    "taint-entry-bits", "full", "§7.2",
    "A set per-entry taint bit always implies the backing physical "
    "register is tainted (entry bits are cleared locally first, never "
    "the other way around).")
_register(
    "zero-reg", "full", "§6.3",
    "The architectural zero register's physical register is never "
    "tainted (its value is public by definition).")
_register(
    "shadow-residency", "full", "§6.8, §7.5",
    "In shadow-L1 mode the shadow structure tracks only lines resident "
    "in the real L1D: an eviction must drop the shadow line so refills "
    "re-taint.")
_register(
    "stall-identity", "full", "repro.obs",
    "Stall-cause accounting attributes every cycle to exactly one cause "
    "(the bucket sum equals the cycle count).")
