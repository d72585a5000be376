"""Author a custom kernel with the builder and sweep it across Table 2.

The kernel is a tiny hash-join: build a hash table from one relation in
memory, then probe it with a second relation.  It mixes program-written data
(public under SPT, thanks to the shadow L1) with cold input data (tainted),
so every protection mechanism is visible in the sweep.

The sweep runs through the group runner, ``simulate_group``: under each
attack model, UnsafeBaseline gets a core of its own and the protected
configurations share one core per class of engines that agree on every
gating query, each result equal to its own run's.

Run with::

    python examples/custom_workload_sweep.py
"""

from repro.core.attack_model import AttackModel
from repro.harness.configs import FIGURE7_ORDER
from repro.harness.runner import simulate_group
from repro.isa import ProgramBuilder

MODELS = (AttackModel.FUTURISTIC, AttackModel.SPECTRE)
CONFIGS = ["UnsafeBaseline", *FIGURE7_ORDER]
BUDGET = 1_000_000      # retired instructions; the kernel halts long before


def build_hash_join(rows: int = 32):
    b = ProgramBuilder("hash-join", data_base=0x10000)
    build_keys = b.alloc_words("build_keys", (i * 7 % 64 for i in range(rows)))
    probe_keys = b.alloc_words("probe_keys", (i * 3 % 64 for i in range(rows)))
    table = b.reserve("table", 64 * 8)

    b.li("s2", build_keys)
    b.li("s3", probe_keys)
    b.li("s4", table)
    # Build phase: table[key] = key + 1 (stores of loaded-but-hashed data).
    b.li("a0", 0)
    with b.loop(count=rows, counter="t0"):
        b.add("t1", "a0", "s2")
        b.ld("a1", "t1", 0)             # build key (cold input: tainted)
        b.andi("a2", "a1", 63)
        b.slli("a2", "a2", 3)
        b.add("a2", "a2", "s4")         # slot address depends on input!
        b.addi("a3", "a1", 1)
        b.sd("a3", "a2", 0)
        b.addi("a0", "a0", 8)
    # Probe phase.
    b.li("a0", 0)
    b.li("a5", 0)                       # match accumulator
    with b.loop(count=rows, counter="t0"):
        b.add("t1", "a0", "s3")
        b.ld("a1", "t1", 0)             # probe key
        b.andi("a2", "a1", 63)
        b.slli("a2", "a2", 3)
        b.add("a2", "a2", "s4")
        b.ld("a4", "a2", 0)             # table lookup
        b.add("a5", "a5", "a4")
        b.addi("a0", "a0", 8)
    b.sd("a5", "zero", 0x300)
    b.halt()
    return b.build()


def main() -> None:
    program = build_hash_join()
    sims = {}
    for model in MODELS:
        run = simulate_group(program, CONFIGS, model, BUDGET)
        sims.update(((config, model), sim)
                    for config, sim in zip(CONFIGS, run.results))
    unsafe = sims["UnsafeBaseline", MODELS[0]]
    print(f"hash-join: {unsafe.retired} instructions, "
          f"{unsafe.cycles} cycles on UnsafeBaseline "
          f"(checksum {unsafe.word(0x300)})\n")
    print(f"{'configuration':<24}{'futuristic':>12}{'spectre':>12}")
    for config in FIGURE7_ORDER:
        cells = []
        for model in MODELS:
            sim = sims[config, model]
            assert sim.word(0x300) == unsafe.word(0x300)
            cells.append(f"{sim.cycles / unsafe.cycles:.2f}x")
        print(f"{config:<24}{cells[0]:>12}{cells[1]:>12}")


if __name__ == "__main__":
    main()
