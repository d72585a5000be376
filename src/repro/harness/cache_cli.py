"""The ``repro cache`` subcommand: stats / gc / clear for the disk cache."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.harness import cache
from repro.harness.configs import finite_at_least_zero

_SUFFIXES = {"k": 2**10, "m": 2**20, "g": 2**30}


def parse_bytes(text: str) -> int:
    """``"500M"`` → bytes; bare integers pass through."""
    text = text.strip().lower()
    factor = 1
    if text and text[-1] in _SUFFIXES:
        factor = _SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = int(text) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a byte count like 1048576 or 500M, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("byte count must be >= 0")
    return value


def _human(num_bytes: int) -> str:
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return (f"{value:.1f} {unit}" if unit != "B"
                    else f"{int(value)} {unit}")
        value /= 1024
    return f"{value:.1f} GiB"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect and bound the persistent result cache.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("stats", help="entry count and byte occupancy")
    gc = sub.add_parser(
        "gc", help="sweep stale tmp files and evict mtime-LRU entries")
    gc.add_argument("--max-bytes", type=parse_bytes, default=None,
                    help="evict least recently used entries until the "
                         "cache fits (accepts K/M/G suffixes)")
    gc.add_argument("--tmp-age", type=finite_at_least_zero,
                    default=3600.0,
                    help="age in seconds beyond which *.tmp files left by "
                         "killed writers are removed (default 3600)")
    sub.add_parser("clear", help="delete every cached result")
    return parser


def cache_main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "stats":
        info = cache.stats()
        print(f"cache dir:  {info['dir']}")
        print(f"entries:    {info['entries']} ({_human(info['bytes'])})")
        print(f"tmp files:  {info['tmp_files']} "
              f"({_human(info['tmp_bytes'])})")
        return 0
    if args.command == "gc":
        swept = cache.gc(max_bytes=args.max_bytes, tmp_max_age=args.tmp_age)
        print(f"removed {swept['tmp_removed']} stale tmp file(s); "
              f"evicted {swept['evicted']} entr(ies) "
              f"({_human(swept['evicted_bytes'])})")
        print(f"remaining: {swept['remaining_entries']} entr(ies), "
              f"{_human(swept['remaining_bytes'])}")
        return 0
    if args.command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s)")
        return 0
    print(f"error: unknown cache command {args.command!r}", file=sys.stderr)
    return 2
