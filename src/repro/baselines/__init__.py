"""Baseline CEP parallelization strategies the paper compares against."""

from repro.baselines.llsf import JSQEngine, LLSFEngine, RREngine, WindowSegmentEngine
from repro.baselines.partitioned import PartitionedEngine, PartitionMetrics, PartitionSpan
from repro.baselines.rip import RIPEngine
from repro.baselines.state_parallel import StateParallelEngine

__all__ = [
    "JSQEngine",
    "LLSFEngine",
    "RREngine",
    "WindowSegmentEngine",
    "PartitionedEngine",
    "PartitionMetrics",
    "PartitionSpan",
    "RIPEngine",
    "StateParallelEngine",
]
