"""Configuration registry, runner, parallel fan-out, cache, and reporting."""

from repro.harness.configs import (CONFIGURATIONS, FIGURE7_ORDER, FULL_SPT,
                                   SECURE_CONFIGS, SPT_CONFIGS, Configuration,
                                   make_engine, table2_text)
from repro.harness.parallel import (RunFailure, RunSpec, default_jobs,
                                    run_many)
from repro.harness.report import format_table, geomean, mean
from repro.harness.runner import (RunResult, bench_budget, bench_scale,
                                  normalized_time, run_one)

__all__ = [
    "CONFIGURATIONS", "FIGURE7_ORDER", "FULL_SPT", "SECURE_CONFIGS",
    "SPT_CONFIGS", "Configuration", "make_engine", "table2_text",
    "format_table", "geomean", "mean",
    "RunResult", "bench_budget", "bench_scale", "normalized_time", "run_one",
    "RunFailure", "RunSpec", "default_jobs", "run_many",
]
