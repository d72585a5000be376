"""Parallel fan-out of independent cells, with result caching for runs.

:func:`fan_out` maps a picklable function over cells, in order, serially
or across a ``ProcessPoolExecutor`` (imported only when a pool is first
built), and fails with a :class:`RunFailure` naming the failing cell.
:func:`run_many` is the substrate of every paper artefact (Figures 7/8/9,
the CLI sweeps, ``repro check``, fuzz campaigns): it deduplicates a list
of :class:`RunSpec` values, satisfies what it can from the persistent
result cache, and fans out only the misses.  The scenario matrix and
``repro backend-diff`` fan out verdicts, which are not cached.

Degradation is graceful at every layer: one job runs serially in-process
(the debuggable path), and a pool that cannot start (no ``fork``/``spawn``
support, sandboxed semaphores, ...) falls back to the serial path rather
than failing the sweep.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.attack_model import AttackModel
from repro.harness import cache
from repro.harness.runner import RunResult, _env_int, run_one
from repro.pipeline.params import MachineParams


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


class RunFailure(RuntimeError):
    """A cell of a fan-out failed; names it by ``spec.describe()``."""

    def __init__(self, spec, cause: str):
        super().__init__(f"run failed ({spec.describe()}): {cause}")
        self.spec = spec
        self.cause = cause


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` (validated) or ``os.cpu_count()``."""
    return _env_int("REPRO_JOBS", os.cpu_count() or 1)


def default_timeout() -> Optional[float]:
    """Per-run timeout in seconds (``REPRO_RUN_TIMEOUT``; unset = none)."""
    raw = os.environ.get("REPRO_RUN_TIMEOUT")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_RUN_TIMEOUT must be a number of seconds, got {raw!r}")
    if value <= 0:
        raise ValueError(
            f"REPRO_RUN_TIMEOUT must be positive, got {value}")
    return value


def _execute_spec(spec: RunSpec) -> RunResult:
    """Worker entry point (module-level so it pickles)."""
    return run_one(spec.workload, spec.config, spec.model,
                   scale=spec.scale, max_instructions=spec.max_instructions,
                   params=spec.params, collect_trace=spec.collect_trace)


def _run_one_bounded(fn: Callable, cell, timeout: float):
    """Run ``fn(cell)`` in a daemon thread with a wall-clock bound.

    The serial path has no worker process to abandon, so the bound is
    best-effort: on timeout the simulation thread keeps running in the
    background (daemonised, so it cannot block interpreter exit) but the
    sweep fails promptly with :class:`RunFailure` instead of stalling for
    as long as the hang lasts.
    """
    box: dict = {}

    def target() -> None:
        try:
            box["result"] = fn(cell)
        except BaseException as exc:     # noqa: BLE001 — reraised below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True,
                              name="repro-serial-run")
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise RunFailure(cell, f"exceeded the {timeout}s run timeout "
                               f"(serial path: run abandoned in a "
                               f"daemon thread)")
    if "error" in box:
        exc = box["error"]
        raise RunFailure(cell, f"{type(exc).__name__}: {exc}") from exc
    return box["result"]


def _run_serial(fn: Callable, cells: Sequence,
                timeout: Optional[float] = None) -> list:
    results = []
    for cell in cells:
        if timeout is not None:
            results.append(_run_one_bounded(fn, cell, timeout))
            continue
        try:
            results.append(fn(cell))
        except Exception as exc:
            raise RunFailure(cell, f"{type(exc).__name__}: {exc}") from exc
    return results


def _run_pool(fn: Callable, cells: Sequence, jobs: int,
              timeout: Optional[float]) -> Optional[list]:
    """Fan ``cells`` across a process pool; None if the pool cannot start.

    The per-run ``timeout`` is enforced as a bound on each future's result,
    collected in submission order: while earlier runs are being awaited the
    later ones execute concurrently, so a run that exceeds its bound is
    caught within ``timeout`` seconds of becoming the collection head
    (approximate when more runs are queued than workers, exact otherwise).
    """
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
                results.append(future.result(timeout=timeout))
            except concurrent.futures.process.BrokenProcessPool:
                return None    # workers died (OOM, signal): retry serially
            except concurrent.futures.TimeoutError:
                raise RunFailure(cell,
                                 f"exceeded the {timeout}s run timeout")
            except Exception as exc:
                raise RunFailure(
                    cell, f"{type(exc).__name__}: {exc}") from exc
    finally:
        # On success every future is done, so a waiting shutdown is free.
        # On any other exit a worker may be wedged mid-simulation (that is
        # how a timeout gets here); joining it — the executor's default
        # exit behaviour — would stall the sweep for as long as the hang
        # lasts, defeating the deadline.  Drop the queue and abandon the
        # pool without waiting instead.
        done = len(results) == len(cells)
        pool.shutdown(wait=done, cancel_futures=not done)
    return results


def fan_out(fn: Callable, cells: Sequence, jobs: int,
            timeout: Optional[float] = None) -> list:
    """``[fn(cell) for cell in cells]``: across ``jobs`` worker processes
    when there is more than one of each (``fn`` and the cells must
    pickle), else serially in-process.  ``timeout`` bounds each cell in
    seconds (``None`` reads ``REPRO_RUN_TIMEOUT``)."""
    cells = list(cells)
    if timeout is None:
        timeout = default_timeout()
    results = None
    if jobs > 1 and len(cells) > 1:
        results = _run_pool(fn, cells, jobs, timeout)
    if results is None:
        results = _run_serial(fn, cells, timeout)
    return results


def run_many(specs: Sequence[RunSpec],
             jobs: Optional[int] = None,
             timeout: Optional[float] = None,
             use_cache: Optional[bool] = None) -> list:
    """Run every spec and return ``RunResult``s in spec order.

    Specs with equal cache keys (:meth:`RunSpec.key`) are simulated once,
    and a spec whose result is already in the persistent result cache is
    not simulated at all.  ``use_cache=None`` consults the environment
    (``REPRO_NO_CACHE``); pass an explicit bool to override.
    ``jobs=None`` reads ``REPRO_JOBS`` / CPU count; ``jobs=1`` forces the
    in-process serial path.
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
    if misses:
        computed = fan_out(_execute_spec, misses.values(), jobs, timeout)
        for key, result in zip(misses, computed):
            known[key] = result
            if use_cache:
                cache.store(key, result)
    return [known[key] for key in keys]
