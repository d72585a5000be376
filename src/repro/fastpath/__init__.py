"""repro.fastpath: the vector execution backend (``backend="vector"``).

A struct-of-arrays fast path over the reference out-of-order model —
packed-bitmask SPT rule evaluation, decode-time metadata tables, and
quiescent-cycle fast-forwarding — verified bit-identical against the
reference backend by the differential suite in ``tests/fastpath`` and by
the ``repro backend-diff`` command.

Importing this package requires numpy; the lazy imports in
:func:`repro.pipeline.core.build_core` keep the reference backend free
of the dependency.
"""

from repro.fastpath.deps import have_numpy, require_numpy
from repro.fastpath.spt_vector import VectorSPTEngine, vectorize_engine
from repro.fastpath.vector_core import VectorCore

__all__ = ["VectorCore", "VectorSPTEngine", "vectorize_engine",
           "have_numpy", "require_numpy"]
