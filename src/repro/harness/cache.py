"""Persistent on-disk result cache for experiment runs.

Every simulation is a pure function of (workload, scale, configuration,
attack model, budget, machine parameters, simulator source).  The cache
keys a :class:`~repro.harness.runner.RunResult` by a content hash of all
of those inputs, so re-rendering a table after a sweep — or sharing the
``UnsafeBaseline`` runs between Figure 7 and Figure 8 — costs zero
simulation time, while any change to ``src/repro`` invalidates cleanly
through the source fingerprint.

Layout: one JSON blob per result under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro``).  Opt out with ``REPRO_NO_CACHE=1`` or the
``cache=False`` argument to :func:`~repro.harness.parallel.run_many`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from typing import Optional

import repro
from repro.core.attack_model import AttackModel
from repro.harness.configs import CONFIGURATIONS
from repro.harness.runner import RunResult
from repro.obs.metrics import Metrics
from repro.pipeline.params import MachineParams

# Bump when the cached-blob layout changes (keys everything to a new slot).
# v4: MachineParams grew check_level (sanitized and unsanitized runs must
# never share a cache entry, even across versions where the field is new).
# v5: MachineParams grew backend; reference and vector runs keyed separately.
# v6: MachineParams lost backend again (every run takes the one machine's
# batched path); the bump retires the per-backend slots.
# v7: blobs carry only the metrics tree; the flat stats and the copied
# untaint views are gone.
CACHE_VERSION = 7

_FINGERPRINT: Optional[str] = None


def cache_dir() -> str:
    """Cache root: ``REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set to a non-empty, non-zero value."""
    flag = os.environ.get("REPRO_NO_CACHE", "")
    return flag in ("", "0")


def source_fingerprint() -> str:
    """Content hash of every ``.py`` file under ``src/repro``.

    Memoised per process: the source tree does not change mid-run, and the
    full walk costs a few milliseconds we do not want on every lookup.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        digest = hashlib.sha256()
        root = os.path.dirname(os.path.abspath(repro.__file__))
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def result_key(workload: str, config: str, model: AttackModel,
               scale: int, max_instructions: Optional[int],
               params: Optional[MachineParams],
               collect_trace: bool = False) -> str:
    """Content hash identifying one simulation's full input set.

    Model-independent configurations (``needs_model=False``, e.g.
    ``UnsafeBaseline``) hash to the same key under every attack model, so
    the baseline runs are simulated once and shared across sweep panels.
    The ``model`` field of a result served from such a shared slot
    reflects whichever request ran first.
    """
    model_value = model.value
    known = CONFIGURATIONS.get(config)
    if known is not None and not known.needs_model:
        model_value = "model-independent"
    payload = {
        "version": CACHE_VERSION,
        "workload": workload,
        "config": config,
        "model": model_value,
        "scale": scale,
        "max_instructions": max_instructions,
        "params": dataclasses.asdict(params or MachineParams()),
        "collect_trace": collect_trace,
        "source": source_fingerprint(),
    }
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _path_for(key: str) -> str:
    return os.path.join(cache_dir(), f"{key}.json")


def result_to_blob(result: RunResult) -> dict:
    """The JSON-safe disk form of a ``RunResult`` (see :func:`store`)."""
    return {
        "workload": result.workload,
        "config": result.config,
        "model": result.model.value,
        "cycles": result.cycles,
        "retired": result.retired,
        "metrics": result.metrics.as_dict(),
        "trace_digests": result.trace_digests,
    }


def result_from_blob(blob: dict) -> Optional[RunResult]:
    """Rebuild a ``RunResult`` from :func:`result_to_blob` form.

    Returns None for stale or corrupt blobs (callers treat it as a miss).
    """
    try:
        return RunResult(
            workload=blob["workload"],
            config=blob["config"],
            model=AttackModel(blob["model"]),
            cycles=blob["cycles"],
            retired=blob["retired"],
            metrics=Metrics.from_dict(blob["metrics"], name="sim"),
            trace_digests=blob.get("trace_digests", {}),
        )
    except (AttributeError, KeyError, ValueError, TypeError):
        return None


def load(key: str) -> Optional[RunResult]:
    """Return the cached result for ``key``, or None on a miss.

    A hit refreshes the entry's mtime, which :func:`gc` evicts by; best
    effort, so a read-only cache directory still serves hits.
    """
    path = _path_for(key)
    try:
        with open(path) as handle:
            blob = json.load(handle)
    except (OSError, ValueError):
        return None
    result = result_from_blob(blob)
    if result is not None:
        try:
            os.utime(path)
        except OSError:
            pass
    return result


def store(key: str, result: RunResult) -> None:
    """Persist ``result`` under ``key`` (atomic, best-effort)."""
    blob = result_to_blob(result)
    directory = cache_dir()
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(blob, handle)
            os.replace(tmp, _path_for(key))
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass    # a read-only or full cache dir must never fail the run


def clear() -> int:
    """Delete every cached result; returns the number removed."""
    removed = 0
    try:
        entries = os.listdir(cache_dir())
    except OSError:
        return 0
    for filename in entries:
        if filename.endswith(".json"):
            try:
                os.unlink(os.path.join(cache_dir(), filename))
                removed += 1
            except OSError:
                pass
    return removed


def _scan() -> tuple:
    """List ``(path, size, mtime)`` for entries and stray tmp files."""
    entries: list = []
    tmp_files: list = []
    directory = cache_dir()
    try:
        names = os.listdir(directory)
    except OSError:
        return entries, tmp_files
    for name in names:
        path = os.path.join(directory, name)
        try:
            info = os.stat(path)
        except OSError:
            continue    # deleted by a concurrent gc/clear
        if name.endswith(".json"):
            entries.append((path, info.st_size, info.st_mtime))
        elif name.endswith(".tmp"):
            tmp_files.append((path, info.st_size, info.st_mtime))
    return entries, tmp_files


def stats() -> dict:
    """Size/occupancy summary of the disk cache (for ``repro cache stats``)."""
    entries, tmp_files = _scan()
    return {
        "dir": cache_dir(),
        "entries": len(entries),
        "bytes": sum(size for _, size, _ in entries),
        "tmp_files": len(tmp_files),
        "tmp_bytes": sum(size for _, size, _ in tmp_files),
    }


def gc(max_bytes: Optional[int] = None, tmp_max_age: float = 3600.0,
       now: Optional[float] = None) -> dict:
    """Bound the disk cache: sweep stale tmp files, then evict mtime-LRU.

    ``*.tmp`` files are partially written blobs left behind by killed
    writers (``store`` writes to a tempfile and renames); any older than
    ``tmp_max_age`` seconds is garbage by construction.  When the entry
    set exceeds ``max_bytes``, oldest-``mtime`` entries are deleted until
    it fits — mtime-LRU, since ``store`` sets an entry's mtime and a
    ``load`` hit refreshes it.
    ``repro cache gc`` is the command-line entry point.
    """
    if now is None:
        now = time.time()
    entries, tmp_files = _scan()
    removed = {"tmp_removed": 0, "evicted": 0, "evicted_bytes": 0}
    for path, _, mtime in tmp_files:
        if now - mtime >= tmp_max_age:
            try:
                os.unlink(path)
                removed["tmp_removed"] += 1
            except OSError:
                pass
    if max_bytes is not None:
        total = sum(size for _, size, _ in entries)
        for path, size, _ in sorted(entries, key=lambda item: item[2]):
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed["evicted"] += 1
            removed["evicted_bytes"] += size
    remaining, _ = _scan()
    removed["remaining_entries"] = len(remaining)
    removed["remaining_bytes"] = sum(size for _, size, _ in remaining)
    return removed
