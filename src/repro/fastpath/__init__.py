"""repro.fastpath: decode tables and the default-vs-reference differential.

* :mod:`repro.fastpath.tables` lowers each program once to flat per-PC
  columns, which the pipeline phases of
  :class:`~repro.pipeline.core.OoOCore` and the packed
  :class:`~repro.core.spt.SPTEngine` index per cycle.
* :mod:`repro.fastpath.diff` (``repro backend-diff``) pins the default
  run against the reference run, bit for bit.

This package imports no core or engine module at import time: the
pipeline imports the tables while ``repro.core`` may still be loading.
"""
