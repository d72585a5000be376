"""Outside-in layer tracer: wraps the layers' public functions from outside.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each layer's public functions and methods with timing wrappers (and
:meth:`Tracer.finish` puts the originals back), so the program itself is
unchanged and an untraced run pays nothing.

Two kinds of wrapper:

* **span** layers are called at most a few times per simulation.  Each
  call becomes a span ``(name, start, end, parent, run)`` kept in memory and
  written as JSON at the end.  A span's self time is its duration minus
  the part covered by its child spans and by the per-cycle layers inside it.
* **per-cycle** layers (the protection engine's tick, the memory hierarchy
  access, the branch predictor) run once or more per simulated cycle, so
  storing a span per call would cost more memory than the simulation.  They
  are leaves, and only their total time and call count are kept.

Self times of all layers plus the time no span covers (``unattributed``)
add up to the traced wall time by construction; a negative self time means
two per-cycle layers were nested, which the smoke test rejects.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# Per-layer metric names as BENCHMARK.json lists them, in report order.
PER_LAYER = (
    ("pipeline.run_s", "s"), ("pipeline.cycles", "count"),
    ("pipeline.host_us_per_cycle", "us"),
    ("pipeline.fetched", "count"), ("pipeline.retired", "count"),
    ("pipeline.retired_per_fetched", "ratio"),
    ("pipeline.construct_s", "s"), ("pipeline.runs", "count"),
    ("pipeline.predict_s", "s"), ("pipeline.predictions", "count"),
    ("core.tick_s", "s"), ("core.ticks", "count"),
    ("core.host_us_per_tick", "us"),
    ("memory.access_s", "s"), ("memory.accesses", "count"),
    ("memory.l1_hit_ratio", "ratio"),
    ("workloads.build_s", "s"), ("workloads.builds", "count"),
    ("harness.run_many_s", "s"), ("harness.run_one_s", "s"),
    ("harness.make_engine_s", "s"), ("harness.specs", "count"),
    ("harness.sims", "count"),
    ("obs.metrics_s", "s"),
    ("security.scenario_s", "s"), ("security.digest_s", "s"),
    ("isa.interpret_s", "s"),
    ("fuzz.generate_s", "s"), ("fuzz.cells", "count"),
    ("verify.check_s", "s"), ("verify.explored", "count"),
    ("verify.retired", "count"), ("verify.host_us_per_step", "us"),
    ("trace.overhead_frac", "ratio"), ("trace.unattributed_s", "s"),
)


class Tracer:
    """Span store plus per-layer self time, call and result counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []       # [name, start, end, parent, run]
        self.self_s: dict = {}      # layer -> self seconds
        self.incl_s: dict = {}      # layer -> inclusive seconds
        self.calls: dict = {}       # layer -> calls
        self.counts: dict = {}      # result-derived counters
        self._frames: list = []     # open: [id, layer, fine0, child_s, child_fine]
        self._per_cycle: dict = {}  # layer -> [seconds, calls]
        self._fine = [0.0]          # seconds inside per-cycle layers, ever
        self._root_s = 0.0          # seconds covered by root spans
        self._root_fine = 0.0       # per-cycle seconds inside root spans
        self._patches: list = []    # (owner, attribute, original)
        self.start = self.end = 0.0

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -------------------------------------------------------------- wrappers
    def span(self, layer: str, fn, on_result=None, when=None):
        """Wrap ``fn`` so each call is a span of ``layer``.

        A call re-entering the innermost open span's layer (recursion) folds
        into it.  ``when(*args)`` false calls through untraced.
        ``on_result(tracer, result, *args)`` reads counts from the result.
        """
        clock = time.perf_counter
        frames, fine, spans = self._frames, self._fine, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (frames and frames[-1][1] == layer) or \
                    (when is not None and not when(*args, **kwargs)):
                return fn(*args, **kwargs)
            span_id = len(spans)
            parent = frames[-1][0] if frames else None
            spans.append([layer, 0.0, 0.0, parent, self.run_id])
            frame = [span_id, layer, fine[0], 0.0, 0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                self._close(frame, start, end)
            if on_result is not None:
                on_result(self, result, *args, **kwargs)
            return result
        return wrapper

    def _close(self, frame, start: float, end: float) -> None:
        span_id, layer, fine0, child_s, child_fine = frame
        duration = end - start
        fine_in = self._fine[0] - fine0
        record = self.spans[span_id]
        record[1], record[2] = start, end
        self.self_s[layer] = self.self_s.get(layer, 0.0) + (
            duration - child_s - (fine_in - child_fine))
        self.incl_s[layer] = self.incl_s.get(layer, 0.0) + duration
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._frames:
            parent = self._frames[-1]
            parent[3] += duration
            parent[4] += fine_in
        else:
            self._root_s += duration
            self._root_fine += fine_in

    def per_cycle(self, layer: str, fn):
        """Wrap a leaf called per simulated cycle: totals only, no spans."""
        clock = time.perf_counter
        fine = self._fine
        totals = self._per_cycle.setdefault(layer, [0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[0] += elapsed
                totals[1] += 1
                fine[0] += elapsed
        return wrapper

    # -------------------------------------------------------------- patching
    def patch_method(self, cls, name: str, wrapper) -> None:
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def patch_function(self, module, name: str, wrapper) -> None:
        """Replace ``module.name`` and every ``from module import name``."""
        original = getattr(module, name)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and \
                    getattr(other, name, None) is original:
                self._patches.append((other, name, original))
                setattr(other, name, wrapper)

    def finish(self) -> None:
        """Stop the clock, restore the originals, fold in per-cycle totals."""
        self.end = time.perf_counter()
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        for layer, (seconds, calls) in self._per_cycle.items():
            self.self_s[layer] = self.incl_s[layer] = seconds
            self.calls[layer] = calls

    # --------------------------------------------------------------- results
    def wall_s(self) -> float:
        return self.end - self.start

    def unattributed_s(self) -> float:
        """Traced wall time that no span and no per-cycle call covers."""
        covered = self._root_s + (self._fine[0] - self._root_fine)
        return self.wall_s() - covered

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as handle:
            json.dump({"run": self.run_id, "start": self.start,
                       "end": self.end,
                       "fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans, **extra}, handle)


def _sim_counts(tracer: Tracer, sim, *_args, **_kwargs) -> None:
    tracer.count("pipeline.cycles", sim.cycles)
    tracer.count("pipeline.retired", sim.retired)
    tracer.count("pipeline.fetched", sim.stats["fetched"])
    l1 = sim.metrics.group("memory.l1d")
    tracer.count("memory.l1_hits", l1.get("hits"))
    tracer.count("memory.l1_lookups", l1.get("hits") + l1.get("misses"))


def _check_counts(tracer: Tracer, result, *_args, **_kwargs) -> None:
    tracer.count("verify.explored", result.stats.explored)
    tracer.count("verify.retired", result.stats.retired)


def _specs_count(tracer: Tracer, _results, specs, *_args, **_kwargs) -> None:
    tracer.count("harness.specs", len(specs))


def install(run_id: str) -> Tracer:
    """Wrap every layer's public entry points; returns the live tracer."""
    from repro.core import baselines, spt, stt                    # noqa: F401
    from repro.experiments import figure7                         # noqa: F401
    from repro.fuzz import campaign, generator, oracle            # noqa: F401
    from repro.harness import configs, parallel, runner
    from repro.isa import interpreter
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.obs.metrics import Metrics
    from repro.pipeline.branch_predictor import BranchPredictor
    from repro.pipeline.core import OoOCore
    from repro.pipeline.engine_api import ProtectionEngine
    from repro.security import observer, scenarios
    from repro.verify import selfcomp, targets                    # noqa: F401
    from repro.workloads import registry
    from repro.workloads.crypto import aes_bitslice, chacha20, djbsort

    t = Tracer(run_id)
    t.patch_function(parallel, "run_many",
                     t.span("harness.run_many", parallel.run_many,
                            on_result=_specs_count))
    t.patch_function(runner, "run_one",
                     t.span("harness.run_one", runner.run_one))
    t.patch_function(configs, "make_engine",
                     t.span("harness.make_engine", configs.make_engine))
    t.patch_method(OoOCore, "__init__",
                   t.span("pipeline.construct", OoOCore.__init__))
    t.patch_method(OoOCore, "run",
                   t.span("pipeline.run", OoOCore.run, on_result=_sim_counts))
    t.patch_method(OoOCore, "build_metrics",
                   t.span("obs.metrics", OoOCore.build_metrics))
    t.patch_method(Metrics, "as_dict", t.span("obs.metrics", Metrics.as_dict))
    # Registry lookups hit a program cache; only a miss builds.
    t.patch_method(registry.Workload, "program", t.span(
        "workloads.build", registry.Workload.program,
        when=lambda self, scale=1:
            (self.name, scale) not in registry._PROGRAM_CACHE))
    for module in (aes_bitslice, chacha20, djbsort):
        t.patch_function(module, "build",
                         t.span("workloads.build", module.build))
    t.patch_function(scenarios, "run_scenario",
                     t.span("security.scenario", scenarios.run_scenario))
    t.patch_function(observer, "channel_digests",
                     t.span("security.digest", observer.channel_digests))
    t.patch_function(interpreter, "run_program",
                     t.span("isa.interpret", interpreter.run_program))
    for name in ("generate_plan", "render"):
        t.patch_function(generator, name,
                         t.span("fuzz.generate", getattr(generator, name)))
    t.patch_function(selfcomp, "check_program",
                     t.span("verify.check", selfcomp.check_program,
                            on_result=_check_counts))

    engines = [ProtectionEngine]
    for cls in engines:
        engines.extend(sub for sub in cls.__subclasses__()
                       if sub not in engines)
    for cls in engines:
        if "tick" in cls.__dict__:
            t.patch_method(cls, "tick", t.per_cycle("core.tick", cls.tick))
    t.patch_method(MemoryHierarchy, "access",
                   t.per_cycle("memory.access", MemoryHierarchy.access))
    for name in ("predict", "resolve"):
        t.patch_method(BranchPredictor, name, t.per_cycle(
            "pipeline.predict", getattr(BranchPredictor, name)))
    t.start = time.perf_counter()
    return t


def wrapper_costs(repeats: int = 5, calls: int = 20_000) -> tuple:
    """Seconds one span call and one per-cycle call add to a no-op.

    Each is the median over ``repeats`` of (wrapped - bare) / ``calls``,
    timed on a throwaway tracer.
    """
    def noop():
        return None

    probe = Tracer("calibration")
    wrapped = (probe.span("calibration.span", noop),
               probe.per_cycle("calibration.cycle", noop))
    clock = time.perf_counter
    samples: tuple = ([], [])
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        for fn, out in zip(wrapped, samples):
            start = clock()
            for _ in range(calls):
                fn()
            out.append((clock() - start - bare) / calls)
        probe.spans.clear()
    return tuple(max(0.0, statistics.median(s)) for s in samples)


def overhead_frac(tracer: Tracer) -> float:
    """Tracing cost against the untraced time of the same pass.

    The cost is each wrapper's calibrated cost per call times its calls.
    Timing an untraced pass beside the traced one instead would measure
    the host: two consecutive passes differ by more than the tracer costs.
    """
    span_s, cycle_s = wrapper_costs()
    cycle_calls = sum(calls for _s, calls in tracer._per_cycle.values())
    span_calls = sum(tracer.calls.values()) - cycle_calls
    cost = span_calls * span_s + cycle_calls * cycle_s
    return cost / (tracer.wall_s() - cost)


def per_layer_metrics(tracer: Tracer, counts: dict) -> dict:
    """Every ``PER_LAYER`` metric of a finished tracer.

    ``counts`` adds counters the workload read from its own results.
    """
    times = tracer.self_s
    calls = tracer.calls
    c = dict(tracer.counts)
    c.update(counts)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "pipeline.run_s": times.get("pipeline.run", 0.0),
        "pipeline.cycles": c.get("pipeline.cycles", 0),
        "pipeline.host_us_per_cycle": 1e6 * ratio(
            tracer.incl_s.get("pipeline.run", 0.0), c.get("pipeline.cycles", 0)),
        "pipeline.fetched": c.get("pipeline.fetched", 0),
        "pipeline.retired": c.get("pipeline.retired", 0),
        "pipeline.retired_per_fetched": ratio(
            c.get("pipeline.retired", 0), c.get("pipeline.fetched", 0)),
        "pipeline.construct_s": times.get("pipeline.construct", 0.0),
        "pipeline.runs": calls.get("pipeline.run", 0),
        "pipeline.predict_s": times.get("pipeline.predict", 0.0),
        "pipeline.predictions": calls.get("pipeline.predict", 0),
        "core.tick_s": times.get("core.tick", 0.0),
        "core.ticks": calls.get("core.tick", 0),
        "core.host_us_per_tick": 1e6 * ratio(
            times.get("core.tick", 0.0), calls.get("core.tick", 0)),
        "memory.access_s": times.get("memory.access", 0.0),
        "memory.accesses": calls.get("memory.access", 0),
        "memory.l1_hit_ratio": ratio(c.get("memory.l1_hits", 0),
                                     c.get("memory.l1_lookups", 0)),
        "workloads.build_s": times.get("workloads.build", 0.0),
        "workloads.builds": calls.get("workloads.build", 0),
        "harness.run_many_s": times.get("harness.run_many", 0.0),
        "harness.run_one_s": times.get("harness.run_one", 0.0),
        "harness.make_engine_s": times.get("harness.make_engine", 0.0),
        "harness.specs": c.get("harness.specs", 0),
        "harness.sims": calls.get("harness.run_one", 0),
        "obs.metrics_s": times.get("obs.metrics", 0.0),
        "security.scenario_s": times.get("security.scenario", 0.0),
        "security.digest_s": times.get("security.digest", 0.0),
        "isa.interpret_s": times.get("isa.interpret", 0.0),
        "fuzz.generate_s": times.get("fuzz.generate", 0.0),
        "fuzz.cells": c.get("fuzz.cells", 0),
        "verify.check_s": times.get("verify.check", 0.0),
        "verify.explored": c.get("verify.explored", 0),
        "verify.retired": c.get("verify.retired", 0),
        "verify.host_us_per_step": 1e6 * ratio(
            times.get("verify.check", 0.0),
            c.get("verify.explored", 0) + c.get("verify.retired", 0)),
        "trace.overhead_frac": overhead_frac(tracer),
        "trace.unattributed_s": tracer.unattributed_s(),
    }
    assert [name for name, _unit in PER_LAYER] == list(values)
    return values
