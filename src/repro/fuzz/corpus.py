"""Persistent JSONL campaign corpus.

One append-only ``corpus.jsonl`` per corpus directory; every line is a
self-describing JSON record:

* ``{"type": "seed", ...}`` — one fuzzed seed: its exposure class, the
  secret pair, and the per-cell verdicts, stamped with the simulator
  source fingerprint they were judged under.
* ``{"type": "counterexample", ...}`` — an unexpected secure-config
  divergence, with the full plan JSON (and the minimised plan when the
  campaign ran with minimisation) so it can be reproduced from the corpus
  alone.

The corpus is a record of what ran, not an index of what to skip.  A
record equal to one the corpus already holds is not written again, so
re-running a campaign under the same code leaves the file as it was.

JSONL keeps the corpus mergeable and greppable; a crashed campaign leaves
at worst one truncated trailing line, which the loader skips and the next
append ends before writing its own.
"""

from __future__ import annotations

import json
import os
from typing import Optional


class Corpus:
    """Append-oriented view over one corpus directory (or in-memory)."""

    def __init__(self, directory: Optional[str]):
        self.directory = directory
        self._records: list = []
        self._unterminated = False     # the file ends without a newline
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._records = self._read()
        self._lines = {_line(record) for record in self._records}

    @property
    def path(self) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, "corpus.jsonl")

    def _read(self) -> list:
        records = []
        try:
            with open(self.path) as handle:
                for line in handle:
                    self._unterminated = not line.endswith("\n")
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        records.append(json.loads(line))
                    except ValueError:
                        continue    # truncated trailing line: skip
        except OSError:
            pass
        return records

    def append(self, record: dict) -> None:
        """Add ``record`` unless the corpus already holds an equal one."""
        line = _line(record)
        if line in self._lines:
            return
        self._lines.add(line)
        self._records.append(record)
        if self.path is None:
            return
        with open(self.path, "a") as handle:
            if self._unterminated:
                handle.write("\n")
                self._unterminated = False
            handle.write(line + "\n")

    # -------------------------------------------------------------- queries
    def records(self, kind: Optional[str] = None) -> list:
        if kind is None:
            return list(self._records)
        return [r for r in self._records if r.get("type") == kind]

    def replayable(self) -> list:
        """(record, plan) pairs for every valid seed record, oldest first.

        The replay hook for cross-oracle checking: seed records don't store
        plan JSON (plans are deterministic in (seed, profile)), so this
        regenerates each plan and hands it back with the recorded concrete
        verdicts.  Records from stale fingerprints are included — the
        symbolic checker re-judges the *plan*, which is fingerprint-free.
        """
        from repro.fuzz.generator import generate_plan
        pairs = []
        for record in self.records("seed"):
            if not record.get("valid"):
                continue
            pairs.append((record,
                          generate_plan(record["seed"], record["profile"])))
        return pairs


def _line(record: dict) -> str:
    """A record's corpus line: equal records have equal lines."""
    return json.dumps(record, sort_keys=True)
