"""Parallel fan-out of independent cells, with result caching for runs.

:func:`fan_out` maps a picklable function over cells, in order, serially
or across a ``ProcessPoolExecutor`` (imported only when a pool is first
built), and stops at the first cell that fails, with a
:class:`RunFailure` naming it.  A cell ends when its simulation does: at
its instruction budget, at ``MachineParams.max_cycles`` or at the core's
no-retirement detector, the last two raising an error the failure carries.
:func:`run_many` is the substrate of every paper artefact (Figures 7/8/9,
the CLI sweeps, fuzz campaigns): it deduplicates a list of
:class:`RunSpec` values, satisfies what it can from the persistent result
cache, and fans out only the misses.  Two adjacent misses that
differ only in twin workloads (one fuzz plan, two secrets) make one pair
cell.  Adjacent misses, or adjacent pair cells, that differ only in
configuration fan out as one group cell, unless a sanitizer is attached.
Every cell, a lone spec included, runs through
:func:`~repro.harness.runner.run_group`, whose
:func:`~repro.harness.runner.simulate_group` decides which of its
configurations share a core (those whose engines advance one visibility
point), a paired core for pair cells: the Figure 7 grid's 300 runs take
130 core runs in 40 cells at budget 500, and a quick fuzz seed's 14
protected pair cells take about 7.
The scenario matrix and ``repro check`` fan out verdicts, which are not
cached; the matrix runs each (scenario, model) row as one group too.

Degradation is graceful at every layer: one job runs serially in-process
(the debuggable path), and a pool that cannot start (no ``fork``/``spawn``
support, sandboxed semaphores, ...) falls back to the serial path rather
than failing the sweep.
"""

from __future__ import annotations

import concurrent.futures
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.core.attack_model import AttackModel
from repro.harness import cache
from repro.harness.runner import _env_int, run_group
from repro.pipeline.params import MachineParams
from repro.workloads.registry import twin_key


@dataclass(frozen=True)
class RunSpec:
    """One simulation request: the full input set of ``run_one``."""

    workload: str
    config: str
    model: AttackModel = AttackModel.FUTURISTIC
    scale: int = 1
    max_instructions: Optional[int] = None
    params: Optional[MachineParams] = None
    collect_trace: bool = False

    def describe(self) -> str:
        return (f"workload={self.workload} config={self.config} "
                f"model={self.model.value} scale={self.scale} "
                f"budget={self.max_instructions}")

    def key(self) -> str:
        return cache.result_key(self.workload, self.config, self.model,
                                self.scale, self.max_instructions,
                                self.params, self.collect_trace)

    def with_config(self, config: str) -> "RunSpec":
        return replace(self, config=config)


@dataclass(frozen=True)
class TwinSpecs:
    """Two specs equal but for their twin workloads: one fan-out cell."""

    a: RunSpec
    b: RunSpec

    @property
    def config(self) -> str:
        return self.a.config

    @property
    def params(self) -> Optional[MachineParams]:
        return self.a.params

    def describe(self) -> str:
        return f"{self.a.describe()} twin={self.b.workload}"

    def with_config(self, config: str) -> "TwinSpecs":
        return TwinSpecs(self.a.with_config(config),
                         self.b.with_config(config))

    @classmethod
    def of(cls, a: RunSpec, b: RunSpec) -> Optional["TwinSpecs"]:
        """The cell of ``a`` and ``b``, or None when they are no twins."""
        if a.workload == b.workload or replace(b, workload=a.workload) != a:
            return None
        key = twin_key(a.workload)
        if key is None or key != twin_key(b.workload):
            return None
        return cls(a, b)


@dataclass(frozen=True)
class GroupSpecs:
    """Specs, or twin cells, equal but for their configurations: one
    fan-out cell."""

    specs: tuple

    def describe(self) -> str:
        others = " ".join(spec.config for spec in self.specs[1:])
        return f"{self.specs[0].describe()} grouped with {others}"

    @classmethod
    def of(cls, last, spec) -> Optional["GroupSpecs"]:
        """The cell of ``last`` (a spec, a twin cell or a group of either)
        with ``spec`` (one of the same kind) added, or None when ``spec``
        does not join it: it differs in more than its configuration, or a
        sanitizer is attached (a sanitized run never shares a core, so
        fusing one would only serialise a sweep)."""
        specs = last.specs if isinstance(last, GroupSpecs) else (last,)
        first = specs[0]
        if spec.with_config(first.config) != first or (
                spec.params is not None
                and spec.params.check_level != "off"):
            return None
        return cls(specs + (spec,))


@dataclass
class SimTally:
    """What a sweep simulated: core runs made, twin pairs served by one
    paired run, and twin pairs that ran separately, by reason (a steering
    site, or see :class:`~repro.harness.runner.GroupRun`)."""

    simulations: int = 0
    paired: int = 0
    fallbacks: Counter = field(default_factory=Counter)

    def add(self, runs: int, fallbacks) -> None:
        """Count ``runs`` core runs, and one twin pair per entry of
        ``fallbacks`` by its ``GroupRun.fallbacks`` entry."""
        self.simulations += runs
        for fallback in fallbacks:
            if fallback is None:
                self.paired += 1
            else:
                self.fallbacks[fallback] += 1


class RunFailure(RuntimeError):
    """A cell of a fan-out failed; names it by ``spec.describe()``."""

    def __init__(self, spec, cause: str):
        super().__init__(f"run failed ({spec.describe()}): {cause}")
        self.spec = spec
        self.cause = cause

    def __reduce__(self):
        # A worker's failure crosses the pool with its spec.
        return type(self), (self.spec, self.cause)

    @classmethod
    def of(cls, spec, exc: Exception) -> "RunFailure":
        """The failure of ``spec``, whose run raised ``exc``."""
        return cls(spec, f"{type(exc).__name__}: {exc}")


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` (validated) or ``os.cpu_count()``."""
    return _env_int("REPRO_JOBS", os.cpu_count() or 1)


def _execute_cell(cell):
    """Worker entry point (module-level so it pickles): the cell's
    ``run_group`` run, a lone spec or twin cell being a group of one.
    Raises the first failing member's :class:`RunFailure`, naming that
    member."""
    members = cell.specs if isinstance(cell, GroupSpecs) else (cell,)
    first = members[0]
    twin = first.b.workload if isinstance(first, TwinSpecs) else None
    spec = first.a if twin else first
    run = run_group(spec.workload, [member.config for member in members],
                    spec.model, scale=spec.scale,
                    max_instructions=spec.max_instructions,
                    params=spec.params, collect_trace=spec.collect_trace,
                    twin=twin)
    for member, result in zip(members, run.results):
        if isinstance(result, Exception):
            raise RunFailure.of(member, result) from result
    return run


def _run_serial(fn: Callable, cells: Sequence) -> list:
    results = []
    for cell in cells:
        try:
            results.append(fn(cell))
        except RunFailure:
            raise              # names the member of the cell that failed
        except Exception as exc:
            raise RunFailure.of(cell, exc) from exc
    return results


def _run_pool(fn: Callable, cells: Sequence, jobs: int) -> Optional[list]:
    """Fan ``cells`` across a process pool; None if the pool cannot start."""
    try:
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs)
    except (OSError, ValueError, NotImplementedError, ImportError):
        return None
    results: list = []
    try:
        try:
            futures = [pool.submit(fn, cell) for cell in cells]
        except (OSError, RuntimeError):
            return None        # pool died before accepting work
        for cell, future in zip(cells, futures):
            try:
                results.append(future.result())
            except concurrent.futures.process.BrokenProcessPool:
                return None    # workers died (OOM, signal): retry serially
            except RunFailure:
                raise
            except Exception as exc:
                raise RunFailure.of(cell, exc) from exc
    finally:
        # On success every future is done, so a waiting shutdown is free.
        # After a failing cell the sweep's outcome is decided: cancel the
        # cells not yet started and return without waiting for the ones
        # the workers hold.
        done = len(results) == len(cells)
        pool.shutdown(wait=done, cancel_futures=not done)
    return results


def fan_out(fn: Callable, cells: Sequence, jobs: int) -> list:
    """``[fn(cell) for cell in cells]``: across ``jobs`` worker processes
    when there is more than one of each (``fn`` and the cells must
    pickle), else serially in-process.  The first failing cell stops the
    fan-out: a :class:`RunFailure` ``fn`` raises passes through, and any
    other exception becomes one naming the cell."""
    cells = list(cells)
    results = None
    if jobs > 1 and len(cells) > 1:
        results = _run_pool(fn, cells, jobs)
    if results is None:
        results = _run_serial(fn, cells)
    return results


def run_many(specs: Sequence[RunSpec],
             jobs: Optional[int] = None,
             use_cache: Optional[bool] = None,
             tally: Optional[SimTally] = None) -> list:
    """Run every spec and return ``RunResult``s in spec order.

    Specs with equal cache keys (:meth:`RunSpec.key`) are simulated once,
    and a spec whose result is already in the persistent result cache is
    not simulated at all.  Two misses adjacent in that order that are
    :class:`TwinSpecs` make one pair cell, and a run of adjacent misses,
    or of adjacent pair cells, that make a :class:`GroupSpecs` one group
    cell; a configuration whose own run raises fails the call with a
    :class:`RunFailure` naming its spec (or pair cell), raised by the cell
    that ran it, which stops the sweep there.  ``use_cache=None`` consults
    the environment (``REPRO_NO_CACHE``); pass an explicit bool to
    override.  ``jobs=None`` reads ``REPRO_JOBS`` / CPU count; ``jobs=1``
    forces the in-process serial path.  ``tally``, when given, counts the
    simulations this call made.
    """
    specs = list(specs)
    if not specs:
        return []
    if jobs is None:
        jobs = default_jobs()
    elif jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if use_cache is None:
        use_cache = cache.cache_enabled()

    keys = [spec.key() for spec in specs]
    known: dict = {}            # key -> RunResult (cache hits + computed)
    misses: dict = {}           # key -> first spec naming it, in order
    for spec, key in zip(specs, keys):
        if key in known or key in misses:
            continue
        hit = cache.load(key) if use_cache else None
        if hit is None:
            misses[key] = spec
        else:
            known[key] = hit
    cells: list = []    # (cache keys, RunSpec, TwinSpecs or GroupSpecs)
    for key, spec in misses.items():
        cell_keys, cell = (key,), spec
        if cells and isinstance(cells[-1][1], RunSpec):
            twins = TwinSpecs.of(cells[-1][1], spec)
            if twins is not None:
                cell_keys, cell = cells.pop()[0] + cell_keys, twins
        if cells:
            group = GroupSpecs.of(cells[-1][1], cell)
            if group is not None:
                cell_keys, cell = cells.pop()[0] + cell_keys, group
        cells.append((cell_keys, cell))
    runs = fan_out(_execute_cell, [cell for _, cell in cells], jobs)
    for (cell_keys, _), run in zip(cells, runs):
        if tally is not None:
            tally.add(run.runs, run.fallbacks)
        # With a twin, each member's result is a pair (its fallback says
        # how the pair was made).
        results = ([result for pair in run.results for result in pair]
                   if run.fallbacks else run.results)
        for key, result in zip(cell_keys, results):
            known[key] = result
            if use_cache:
                cache.store(key, result)
    return [known[key] for key in keys]
