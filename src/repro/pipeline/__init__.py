"""Out-of-order pipeline substrate."""

from repro.pipeline.branch_predictor import (BranchPredictor,
                                             BranchTargetBuffer,
                                             GsharePredictor,
                                             ReturnAddressStack)
from repro.pipeline.core import OoOCore, SimResult, SimulationError
from repro.pipeline.dyninst import DynInst
from repro.pipeline.engine_api import ProtectionEngine
from repro.pipeline.params import MachineParams, table1_text
from repro.pipeline.rename import RenameUnit
from repro.pipeline.trace import PipelineTracer, TraceEntry, trace_program

__all__ = [
    "BranchPredictor", "BranchTargetBuffer", "GsharePredictor",
    "ReturnAddressStack", "OoOCore", "SimResult", "SimulationError",
    "DynInst", "ProtectionEngine", "MachineParams", "table1_text",
    "RenameUnit", "PipelineTracer", "TraceEntry", "trace_program",
]
