"""The checker's golden record: every check's outcome, frozen as digests.

``golden_record.json`` holds one entry per self-composition check: the
verdict, the work counters and the witness count in the clear, plus a
digest of the whole :meth:`~repro.verify.selfcomp.CheckResult.to_json`
record (witnesses with their rendered A/B expressions, distinguishing
secret pairs and observed values, stats and bounds).  A change to how the
checker computes must leave every entry as it is; only a change meant to
move verdicts or witnesses rewrites the record, with
:func:`tests.verify.test_golden_record.regenerate`.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

RECORD = Path(__file__).with_name("golden_record.json")


def digest(result) -> dict:
    """The record entry of one :class:`~repro.verify.selfcomp.CheckResult`."""
    record = result.to_json()
    blob = json.dumps(record, sort_keys=True).encode()
    return {
        "verdict": record["verdict"],
        "stats": record["stats"],
        "witnesses": len(record["witnesses"]),
        "sha": hashlib.sha256(blob).hexdigest()[:16],
    }


@lru_cache(maxsize=None)
def load() -> dict:
    return json.loads(RECORD.read_text())


def mismatches(key: str, result) -> list:
    """How ``result`` differs from the record entry ``key`` (empty = match)."""
    want = load().get(key)
    if want is None:
        return [f"{key}: no golden record entry"]
    got = digest(result)
    return [f"{key}: {field} recorded {want.get(field)!r}, "
            f"got {got.get(field)!r}"
            for field in sorted(set(want) | set(got))
            if want.get(field) != got.get(field)]


def write(entries: dict, path: Path = RECORD) -> None:
    """Write ``{key: result digest}`` one check per line, sorted by key."""
    lines = [f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
             for key in sorted(entries)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    load.cache_clear()
