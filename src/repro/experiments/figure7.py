"""Figure 7 + Section 9.2 headline numbers: normalised execution time.

Runs every Table 2 configuration on every benchmark under both attack models
and reports execution time normalised to UnsafeBaseline, the per-category
averages, and the paper's headline ratios (SPT overhead vs. UnsafeBaseline,
overhead reduction vs. SecureBaseline, and the constant-time-kernel
comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.attack_model import AttackModel
from repro.harness.configs import FIGURE7_ORDER, FULL_SPT
from repro.harness.parallel import RunSpec, run_many
from repro.harness.report import format_table, geomean, mean
from repro.harness.runner import bench_budget, bench_scale, normalized_time
from repro.workloads.registry import WORKLOADS, ct_workloads, spec_workloads


@dataclass
class Figure7Data:
    """Normalised execution times: (model, workload, config) -> float."""

    times: dict = field(default_factory=dict)
    workloads: list = field(default_factory=list)
    configs: list = field(default_factory=list)
    models: list = field(default_factory=list)

    def normalized(self, model: AttackModel, workload: str, config: str) -> float:
        return self.times[(model, workload, config)]

    def mean_normalized(self, model: AttackModel, config: str,
                        workloads: Optional[Sequence[str]] = None) -> float:
        names = workloads or self.workloads
        return geomean([self.normalized(model, w, config) for w in names])


def specs(workloads: Sequence[str], configs: Sequence[str],
          models: Sequence[AttackModel], scale: int,
          budget: Optional[int]) -> list:
    """The Figure 7 sweep as a flat spec list: baseline first per cell."""
    out = []
    for model in models:
        for workload in workloads:
            out.append(RunSpec(workload, "UnsafeBaseline", model,
                               scale=scale, max_instructions=budget))
            for config in configs:
                out.append(RunSpec(workload, config, model,
                                   scale=scale, max_instructions=budget))
    return out


def collect(workloads: Optional[Sequence[str]] = None,
            configs: Optional[Sequence[str]] = None,
            models: Optional[Sequence[AttackModel]] = None,
            scale: Optional[int] = None,
            budget: Optional[int] = None,
            jobs: Optional[int] = None,
            use_cache: Optional[bool] = None) -> Figure7Data:
    """Run the Figure 7 sweep and return normalised execution times."""
    workloads = list(workloads or WORKLOADS)
    configs = list(configs or FIGURE7_ORDER)
    models = list(models or (AttackModel.FUTURISTIC, AttackModel.SPECTRE))
    scale = scale or bench_scale()
    budget = budget or bench_budget()
    data = Figure7Data(workloads=workloads, configs=configs, models=models)
    results = iter(run_many(specs(workloads, configs, models, scale, budget),
                            jobs=jobs, use_cache=use_cache))
    for model in models:
        for workload in workloads:
            baseline = next(results)
            for config in configs:
                data.times[(model, workload, config)] = \
                    normalized_time(next(results), baseline)
    return data


def render(data: Figure7Data) -> str:
    """Render the two Figure 7 panels as ASCII tables."""
    sections = []
    for model in data.models:
        headers = ["benchmark"] + data.configs + ["(avg row)"]
        rows = []
        for workload in data.workloads:
            values = [data.normalized(model, workload, c) for c in data.configs]
            rows.append([workload] + values + [mean(values)])
        averages = ["average"] + [
            data.mean_normalized(model, c) for c in data.configs] + [""]
        rows.append(averages)
        sections.append(format_table(
            headers, rows,
            title=f"Figure 7 ({model.value} model): execution time "
                  f"normalised to UnsafeBaseline"))
    return "\n\n".join(sections)


def headline(data: Figure7Data) -> dict:
    """The Section 9.2 headline numbers, computed from the sweep."""
    ct_names = [w.name for w in ct_workloads() if w.name in data.workloads]
    spec_names = [w.name for w in spec_workloads() if w.name in data.workloads]
    out: dict = {}
    for model in data.models:
        key = model.value
        spt = data.mean_normalized(model, FULL_SPT) - 1.0
        secure = data.mean_normalized(model, "SecureBaseline") - 1.0
        out[f"spt_overhead_{key}"] = spt
        out[f"secure_overhead_{key}"] = secure
        out[f"overhead_reduction_{key}"] = secure / spt if spt > 0 else float("inf")
        if "STT" in data.configs:
            stt = data.mean_normalized(model, "STT") - 1.0
            out[f"stt_overhead_{key}"] = stt
            out[f"spt_extra_over_stt_pp_{key}"] = (spt - stt) * 100
        if ct_names:
            ct_secure = data.mean_normalized(model, "SecureBaseline", ct_names)
            ct_spt = data.mean_normalized(model, FULL_SPT, ct_names)
            out[f"ct_secure_slowdown_{key}"] = ct_secure
            out[f"ct_spt_slowdown_{key}"] = ct_spt
        if spec_names:
            out[f"spec_spt_overhead_{key}"] = \
                data.mean_normalized(model, FULL_SPT, spec_names) - 1.0
    return out


def render_headline(numbers: dict) -> str:
    lines = ["Section 9.2 headline numbers (paper values in parentheses):"]
    paper = {
        "spt_overhead_futuristic": "0.45",
        "spt_overhead_spectre": "0.11",
        "overhead_reduction_futuristic": "3.6x",
        "overhead_reduction_spectre": "3.0x",
        "ct_secure_slowdown_futuristic": "2.8x",
        "ct_spt_slowdown_futuristic": "1.10x",
        "spt_extra_over_stt_pp_futuristic": "26.1pp",
        "spt_extra_over_stt_pp_spectre": "3.3pp",
    }
    for key, value in sorted(numbers.items()):
        reference = f"   (paper: {paper[key]})" if key in paper else ""
        lines.append(f"  {key:38s} = {value:7.3f}{reference}")
    return "\n".join(lines)


def main() -> str:
    data = collect()
    text = render(data) + "\n\n" + render_headline(headline(data))
    print(text)
    return text


if __name__ == "__main__":
    main()
