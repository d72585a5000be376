"""Figure 9 + Section 9.4: choosing the untaint broadcast width.

Runs SPT {Ideal, ShadowMem} (unbounded single-cycle untainting) on the SPEC
benchmarks and, for every *untainting cycle* (a cycle in which at least one
register is untainted), records how many registers were untainted.  The
cumulative distribution justifies the hardware's broadcast width of 3: the
paper finds ~81% of untainting cycles untaint at most 3 registers.

``width_sweep`` is the companion ablation: actual execution time of the full
SPT design as the broadcast width varies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.attack_model import AttackModel
from repro.harness.configs import FULL_SPT
from repro.harness.parallel import RunSpec, run_many
from repro.harness.report import format_table, mean
from repro.harness.runner import bench_budget, bench_scale
from repro.pipeline.params import MachineParams
from repro.workloads.registry import spec_workloads

MAX_BUCKET = 10      # the paper plots N = 1..10+


@dataclass
class Figure9Data:
    """workload -> {registers_untainted: cycle_count}."""

    histograms: dict = field(default_factory=dict)
    workloads: list = field(default_factory=list)

    def cdf(self, workload: str) -> list:
        """P(registers untainted <= N) for N = 1..MAX_BUCKET."""
        histogram = self.histograms[workload]
        total = sum(histogram.values())
        if not total:
            return [1.0] * MAX_BUCKET
        cumulative = []
        running = 0
        for n in range(1, MAX_BUCKET + 1):
            running += histogram.get(n, 0)
            cumulative.append(running / total)
        # Everything above MAX_BUCKET folds into the last bucket implicitly.
        return cumulative

    def average_cdf(self) -> list:
        return [mean(self.cdf(w)[n] for w in self.workloads)
                for n in range(MAX_BUCKET)]


def collect(workloads: Optional[Sequence[str]] = None,
            model: AttackModel = AttackModel.FUTURISTIC,
            scale: Optional[int] = None,
            budget: Optional[int] = None,
            jobs: Optional[int] = None,
            use_cache: Optional[bool] = None) -> Figure9Data:
    workloads = list(workloads or [w.name for w in spec_workloads()])
    scale = scale or bench_scale()
    budget = budget or bench_budget()
    data = Figure9Data(workloads=workloads)
    specs = [RunSpec(workload, "SPT{Ideal,ShadowMem}", model, scale=scale,
                     max_instructions=budget)
             for workload in workloads]
    for workload, result in zip(workloads,
                                run_many(specs, jobs=jobs,
                                         use_cache=use_cache)):
        data.histograms[workload] = result.metrics.group(
            "engine.untaint").dists.get("untaints_per_cycle", {})
    return data


def render(data: Figure9Data) -> str:
    headers = ["benchmark"] + [f"<={n}" for n in range(1, MAX_BUCKET + 1)]
    rows = []
    for workload in data.workloads:
        rows.append([workload] + [f"{100 * p:5.1f}%" for p in data.cdf(workload)])
    rows.append(["average"] + [f"{100 * p:5.1f}%" for p in data.average_cdf()])
    return format_table(
        headers, rows,
        title="Figure 9: % of untainting cycles untainting <= N registers "
              "(SPT {Ideal, ShadowMem})")


def width_sweep(widths: Sequence[int] = (1, 2, 3, 4, 8),
                workloads: Optional[Sequence[str]] = None,
                model: AttackModel = AttackModel.FUTURISTIC,
                scale: Optional[int] = None,
                budget: Optional[int] = None,
                jobs: Optional[int] = None,
                use_cache: Optional[bool] = None) -> dict:
    """Section 9.4 ablation: cycles of full SPT vs. broadcast width."""
    workloads = list(workloads or
                     [w.name for w in spec_workloads()][:6])
    scale = scale or bench_scale()
    budget = budget or bench_budget()
    keys = [(width, workload) for width in widths for workload in workloads]
    specs = [RunSpec(workload, FULL_SPT, model, scale=scale,
                     max_instructions=budget,
                     params=MachineParams(untaint_broadcast_width=width))
             for width, workload in keys]
    results = run_many(specs, jobs=jobs, use_cache=use_cache)
    cycles = {key: result.cycles for key, result in zip(keys, results)}
    return {"cycles": cycles, "widths": list(widths), "workloads": workloads}


def render_width_sweep(sweep: dict) -> str:
    headers = ["benchmark"] + [f"width={w}" for w in sweep["widths"]]
    rows = []
    for workload in sweep["workloads"]:
        base = sweep["cycles"][(sweep["widths"][-1], workload)]
        rows.append([workload] + [sweep["cycles"][(w, workload)] / base
                                  for w in sweep["widths"]])
    return format_table(
        headers, rows,
        title="Section 9.4 ablation: SPT cycles vs. untaint broadcast width "
              "(normalised to the widest)")


def main() -> str:
    text = render(collect())
    text += "\n\n" + render_width_sweep(width_sweep())
    print(text)
    return text


if __name__ == "__main__":
    main()
