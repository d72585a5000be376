"""Workload registry: the benchmark suite of the paper's evaluation.

SPEC CPU2017 is substituted by behaviour-matched synthetic kernels (one per
benchmark the paper plots) and the three data-oblivious kernels are
re-implementations of the same algorithms (bitsliced AES, ChaCha20,
djbsort).  See DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.isa.instructions import Program
from repro.workloads.crypto import aes_bitslice, chacha20, djbsort
from repro.workloads.spec_like import (bwaves, cactu, deepsjeng, exchange2,
                                       fotonik, gcc, lbm, leela, mcf, namd,
                                       omnetpp, parest, perlbench, povray,
                                       x264, xalancbmk, xz)

CATEGORY_SPEC = "spec"
CATEGORY_CT = "data-oblivious"


# Built programs, keyed (name, scale).  Builders are deterministic and
# programs are immutable once assembled (every core reads the memory image
# in place and keeps its stores in its own overlay; nothing writes through
# to the Program), so repeated runs of one workload can share the build —
# and, with it, the core's decode-table lowering cached on the program
# object.
_PROGRAM_CACHE: dict[tuple[str, int], Program] = {}


@dataclass(frozen=True)
class Workload:
    """One benchmark: a named, scalable program builder.

    Workloads with one ``twin_key`` build *twin* programs: the same
    instruction stream and image layout, different image bytes (one fuzz
    plan rendered with different secrets).  ``run_many`` runs two such
    requests as one paired simulation.
    """

    name: str
    category: str
    build: Callable[..., Program]
    description: str
    twin_key: Optional[str] = None

    def program(self, scale: int = 1) -> Program:
        key = (self.name, scale)
        prog = _PROGRAM_CACHE.get(key)
        if prog is None:
            prog = _PROGRAM_CACHE[key] = self.build(scale)
        return prog


WORKLOADS: dict[str, Workload] = {}


def _register(name: str, category: str, build: Callable[..., Program],
              description: str) -> None:
    WORKLOADS[name] = Workload(name, category, build, description)


_register("perlbench", CATEGORY_SPEC, perlbench.build,
          "hash-table probing with counter write-back")
_register("gcc", CATEGORY_SPEC, gcc.build,
          "opcode dispatch with helper calls")
_register("mcf", CATEGORY_SPEC, mcf.build,
          "pointer chasing with cost branches")
_register("omnetpp", CATEGORY_SPEC, omnetpp.build,
          "binary-heap event queue")
_register("xalancbmk", CATEGORY_SPEC, xalancbmk.build,
          "binary-tree search walks")
_register("x264", CATEGORY_SPEC, x264.build,
          "SAD motion search")
_register("deepsjeng", CATEGORY_SPEC, deepsjeng.build,
          "bitboard scan and score")
_register("leela", CATEGORY_SPEC, leela.build,
          "board scan with liberty counting")
_register("exchange2", CATEGORY_SPEC, exchange2.build,
          "nested-loop block permutation")
_register("xz", CATEGORY_SPEC, xz.build,
          "LZ match-length scanning")
_register("bwaves", CATEGORY_SPEC, bwaves.build,
          "streaming triad beyond L1")
_register("cactuBSSN", CATEGORY_SPEC, cactu.build,
          "5-point stencil sweep")
_register("namd", CATEGORY_SPEC, namd.build,
          "compute-dense pair interactions")
_register("parest", CATEGORY_SPEC, parest.build,
          "CSR sparse matrix-vector product")
_register("povray", CATEGORY_SPEC, povray.build,
          "ray-sphere intersection tests")
_register("fotonik3d", CATEGORY_SPEC, fotonik.build,
          "FDTD field update stream")
_register("lbm", CATEGORY_SPEC, lbm.build,
          "lattice collide-and-stream")

_register("aes-bitslice", CATEGORY_CT, aes_bitslice.build,
          "bitsliced AES rounds (constant time)")
_register("chacha20", CATEGORY_CT, chacha20.build,
          "ChaCha20 keystream (constant time)")
_register("djbsort", CATEGORY_CT, djbsort.build,
          "constant-time sorting network")


def spec_workloads() -> list:
    return [w for w in WORKLOADS.values() if w.category == CATEGORY_SPEC]


def ct_workloads() -> list:
    return [w for w in WORKLOADS.values() if w.category == CATEGORY_CT]


def twin_key(name: str) -> Optional[str]:
    """The ``twin_key`` of workload ``name`` (None for an unknown name)."""
    try:
        return get(name).twin_key
    except KeyError:
        return None


def get(name: str) -> Workload:
    workload = WORKLOADS.get(name)
    if workload is None and name.startswith("fuzz:"):
        # A fuzz victim is a workload named
        # ``fuzz:<profile>:<seed>:<secret-hex>``, built from that name
        # rather than registered, so worker processes and the result cache
        # rebuild it from the name alone.  Imported here because the
        # generator imports this module.
        from repro.fuzz.generator import workload_from_name
        workload = workload_from_name(name)
    if workload is None:
        raise KeyError(f"unknown workload {name!r}; "
                       f"known: {sorted(WORKLOADS)}")
    return workload
