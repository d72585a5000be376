"""Hierarchical simulation metrics.

A :class:`Metrics` node holds scalar counters, integer-bucketed
distributions, and named child groups, forming a tree such as::

    sim.cycles                 3846
    stalls.retiring            2101
    stalls.memory-miss          904
    engine.untaint.forward      312
    engine.broadcast.width::2    57

The tree is the only carrier of a run's counters: ``SimResult.metrics``
and ``RunResult.metrics`` are both a :class:`Metrics`, and readers resolve
dotted paths (:meth:`group`, :meth:`get`, :meth:`flatten`).  It renders
gem5-``stats.txt``-style text (:meth:`render`) for ``repro stats`` and the
artifact CLI's ``stats.txt``.  Only the on-disk result cache (and
``repro stats --json``) use the nested JSON-safe dict form
(:meth:`as_dict` / :meth:`from_dict`).
"""

from __future__ import annotations

from typing import Optional, Union

Number = Union[int, float]


class Metrics:
    """One node of the metrics hierarchy."""

    __slots__ = ("name", "scalars", "dists", "groups")

    def __init__(self, name: str = "metrics"):
        self.name = name
        self.scalars: dict[str, Number] = {}
        self.dists: dict[str, dict[int, int]] = {}
        self.groups: dict[str, "Metrics"] = {}

    # ------------------------------------------------------------- building
    def child(self, name: str) -> "Metrics":
        """Return the named child group, creating it on first use."""
        node = self.groups.get(name)
        if node is None:
            node = Metrics(name)
            self.groups[name] = node
        return node

    def set(self, name: str, value: Number) -> None:
        self.scalars[name] = value

    def add(self, name: str, amount: Number = 1) -> None:
        self.scalars[name] = self.scalars.get(name, 0) + amount

    def get(self, name: str, default: Number = 0) -> Number:
        return self.scalars.get(name, default)

    def set_dist(self, name: str, histogram: dict) -> None:
        self.dists[name] = {int(k): int(v) for k, v in histogram.items()}

    # ------------------------------------------------------------ traversal
    def flatten(self, prefix: str = "") -> dict:
        """Dotted-key view of every scalar (and dist bucket as ``k::b``)."""
        out: dict = {}
        for key, value in self.scalars.items():
            out[prefix + key] = value
        for key, dist in self.dists.items():
            for bucket, count in sorted(dist.items()):
                out[f"{prefix}{key}::{bucket}"] = count
        for name, group in self.groups.items():
            out.update(group.flatten(f"{prefix}{name}."))
        return out

    def group(self, path: str) -> Optional["Metrics"]:
        """Resolve a dotted group path (``"engine.untaint"``), or None."""
        node: Optional[Metrics] = self
        for part in path.split("."):
            if node is None:
                return None
            node = node.groups.get(part)
        return node

    # -------------------------------------------------------- serialisation
    def as_dict(self) -> dict:
        """Nested JSON-safe dict (dist buckets stringified for JSON)."""
        out: dict = {}
        if self.scalars:
            out["scalars"] = dict(self.scalars)
        if self.dists:
            out["dists"] = {name: {str(b): c for b, c in sorted(d.items())}
                            for name, d in self.dists.items()}
        if self.groups:
            out["groups"] = {name: g.as_dict()
                             for name, g in self.groups.items()}
        return out

    @classmethod
    def from_dict(cls, blob: dict, name: str = "metrics") -> "Metrics":
        """Rebuild a tree from :meth:`as_dict` output (bucket keys re-int'd)."""
        node = cls(name)
        node.scalars = dict(blob.get("scalars", {}))
        node.dists = {dist_name: {int(b): int(c) for b, c in d.items()}
                      for dist_name, d in blob.get("dists", {}).items()}
        node.groups = {child_name: cls.from_dict(child, child_name)
                       for child_name, child in blob.get("groups", {}).items()}
        return node

    # ------------------------------------------------------------ rendering
    def render(self, title: str = "Simulation Metrics") -> str:
        """gem5-``stats.txt``-style flat rendering of the whole hierarchy."""
        lines = [f"---------- Begin {title} ----------"]
        for key, value in self.flatten().items():
            if isinstance(value, float):
                text = format(value, ".6f")
            else:
                text = str(value)
            lines.append(f"{key} {text:>{max(1, 56 - len(key))}} #")
        lines.append(f"---------- End {title}   ----------")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (f"<Metrics {self.name!r}: {len(self.scalars)} scalars, "
                f"{len(self.dists)} dists, {len(self.groups)} groups>")
