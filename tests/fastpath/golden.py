"""The golden record: the reference run's outcomes, frozen as digests.

``golden_record.json`` holds one entry per differential cell: digests of
every field :func:`repro.fastpath.diff.compare_cell` compares (cycles,
retired count, halt, the retired-PC stream, the architectural registers,
every metric path less ``check.*``, and the per-channel trace digests),
or the error string of a wedged run.  The record was generated from the
per-instruction pipeline phases the core once ran for the reference run,
before they were deleted; a run that matches an entry computes what they
computed.  :func:`tests.fastpath.test_golden_record.regenerate` rewrites
it.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

RECORD = Path(__file__).with_name("golden_record.json")


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def digest(outcome: dict) -> dict:
    """The record entry of one :func:`~repro.fastpath.diff.run_outcome`."""
    if "error" in outcome:
        return {"error": outcome["error"]}
    return {
        "cycles": outcome["cycles"],
        "retired": outcome["retired"],
        "halted": outcome["halted"],
        "retired_pcs": _sha(outcome["retired_pcs"]),
        "arch_regs": _sha(outcome["arch_regs"]),
        "metrics": _sha(sorted(outcome["metrics"].items())),
        "digests": {channel: value[:16]
                    for channel, value in outcome["digests"].items()},
    }


@lru_cache(maxsize=None)
def load() -> dict:
    return json.loads(RECORD.read_text())


def mismatches(key: str, outcome: dict) -> list:
    """How ``outcome`` differs from the record entry ``key`` (empty = match)."""
    want = load().get(key)
    if want is None:
        return [f"{key}: no golden record entry"]
    got = digest(outcome)
    return [f"{key}: {field} recorded {want.get(field)!r}, "
            f"got {got.get(field)!r}"
            for field in sorted(set(want) | set(got))
            if want.get(field) != got.get(field)]


def assert_golden(key: str, outcome: dict) -> None:
    problems = mismatches(key, outcome)
    assert not problems, "; ".join(problems)


def write(entries: dict, path: Path = RECORD) -> None:
    """Write ``{key: outcome digest}`` one cell per line, sorted by key."""
    lines = [f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
             for key in sorted(entries)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    load.cache_clear()
