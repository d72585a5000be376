"""Figure 8: per-benchmark breakdown of untaint-event types.

Runs the full SPT design (SPT {Bwd, ShadowL1}) on every benchmark under both
attack models and reports the fraction of register-untaint events of each
exclusive kind (VP declassification, forward, backward, shadow-L1,
store-to-load forwarding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.attack_model import AttackModel
from repro.core.events import UntaintKind
from repro.harness.configs import FULL_SPT
from repro.harness.parallel import RunSpec, run_many
from repro.harness.report import format_table
from repro.harness.runner import bench_budget, bench_scale
from repro.workloads.registry import WORKLOADS

KIND_ORDER = [
    UntaintKind.VP_TRANSMITTER, UntaintKind.VP_BRANCH, UntaintKind.FORWARD,
    UntaintKind.BACKWARD, UntaintKind.SHADOW_L1, UntaintKind.STL_FORWARD,
    UntaintKind.STL_BACKWARD,
]


@dataclass
class Figure8Data:
    """(model, workload) -> {kind_name: count}."""

    counts: dict = field(default_factory=dict)
    workloads: list = field(default_factory=list)
    models: list = field(default_factory=list)

    def breakdown(self, model: AttackModel, workload: str) -> dict:
        """Fractions per kind (empty dict if no untaint events occurred)."""
        counts = self.counts[(model, workload)]
        total = sum(counts.values())
        if not total:
            return {}
        return {kind: counts.get(kind, 0) / total for kind in counts}


def collect(workloads: Optional[Sequence[str]] = None,
            models: Optional[Sequence[AttackModel]] = None,
            config: str = FULL_SPT,
            scale: Optional[int] = None,
            budget: Optional[int] = None,
            jobs: Optional[int] = None,
            use_cache: Optional[bool] = None) -> Figure8Data:
    workloads = list(workloads or WORKLOADS)
    models = list(models or (AttackModel.FUTURISTIC, AttackModel.SPECTRE))
    scale = scale or bench_scale()
    budget = budget or bench_budget()
    data = Figure8Data(workloads=workloads, models=models)
    specs = [RunSpec(workload, config, model, scale=scale,
                     max_instructions=budget)
             for model in models for workload in workloads]
    results = iter(run_many(specs, jobs=jobs, use_cache=use_cache))
    for model in models:
        for workload in workloads:
            untaint = next(results).metrics.group("engine.untaint")
            data.counts[(model, workload)] = {} if untaint is None else {
                kind: count for kind, count in untaint.scalars.items()
                if kind != "total"}
    return data


def render(data: Figure8Data) -> str:
    headers = (["benchmark", "model", "total"]
               + [kind.value for kind in KIND_ORDER])
    rows = []
    for workload in data.workloads:
        for model in data.models:
            counts = data.counts[(model, workload)]
            total = sum(counts.values())
            fractions = []
            for kind in KIND_ORDER:
                count = counts.get(kind.value, 0)
                fractions.append(f"{100 * count / total:5.1f}%" if total else "-")
            tag = "F" if model == AttackModel.FUTURISTIC else "S"
            rows.append([workload, tag, total] + fractions)
    return format_table(
        headers, rows,
        title="Figure 8: breakdown of untaint events, SPT {Bwd, ShadowL1} "
              "(F = Futuristic, S = Spectre)")


def main() -> str:
    text = render(collect())
    print(text)
    return text


if __name__ == "__main__":
    main()
