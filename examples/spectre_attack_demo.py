"""Penetration-test demo: who leaks what (paper Section 9.1).

Runs the Spectre V1 gadget (leaks speculatively-accessed data) and the
non-speculative-secret gadget (the attack that motivates SPT) against every
configuration, printing the leak matrix.  The punchline is the STT row of the
second attack: STT blocks Spectre V1 but NOT the non-speculative secret.

Run with::

    python examples/spectre_attack_demo.py
"""

from repro.core.attack_model import AttackModel
from repro.security.scenarios import SCENARIOS, run_scenario

CONFIGS = ["UnsafeBaseline", "STT", "SPT{Fwd,NoShadowL1}",
           "SPT{Bwd,ShadowL1}", "SecureBaseline"]


def show(scenario: str, title: str) -> None:
    print(f"\n=== {title} ===")
    attack = SCENARIOS[scenario].build()
    print(f"secret byte: {attack.secret:#04x}; "
          f"leak line: {attack.leaked_line():#x}")
    header = f"{'configuration':<22}" + "".join(
        f"{m.value:>13}" for m in AttackModel)
    print(header)
    for config in CONFIGS:
        cells = []
        for model in AttackModel:
            leaked, _ = run_scenario(scenario, config, model)
            cells.append("LEAKED" if leaked else "safe")
        print(f"{config:<22}" + "".join(f"{c:>13}" for c in cells))


def main() -> None:
    show("spectre-pht",
         "Spectre V1: bounds-check bypass (speculatively-accessed data)")
    show("nonspec-secret",
         "Non-speculative secret via mis-trained indirect branch")
    print("\nNote the STT row of the second attack: data that was accessed"
          "\nnon-speculatively is outside STT's protection scope (paper"
          "\nSection 3) - exactly the gap SPT closes.")


if __name__ == "__main__":
    main()
