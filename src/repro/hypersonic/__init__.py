"""HYPERSONIC: the hybrid two-tier parallel CEP system (paper Sections 3–4)."""

from repro.hypersonic.agent import AgentCore
from repro.hypersonic.allocation import AllocationPlan, allocate_units
from repro.hypersonic.buffers import AgentGlobalBuffer, BufferSnapshot, FragmentedBuffer
from repro.hypersonic.engine import (
    HypersonicConfig,
    HypersonicEngine,
    detect_hybrid,
)
from repro.hypersonic.fusion import FusedAgentCore, FusionPlan, plan_with_fusion
from repro.hypersonic.items import ItemKind, Receipt, WorkItem, WorkQueue
from repro.hypersonic.splitter import RouteTarget, Splitter, SplitterReceipt
from repro.hypersonic.workers import ExecutionUnit, Roles, WorkerPolicy, assign_roles

__all__ = [
    "AgentCore",
    "AllocationPlan",
    "allocate_units",
    "AgentGlobalBuffer",
    "BufferSnapshot",
    "FragmentedBuffer",
    "HypersonicConfig",
    "HypersonicEngine",
    "detect_hybrid",
    "FusedAgentCore",
    "FusionPlan",
    "plan_with_fusion",
    "ItemKind",
    "Receipt",
    "WorkItem",
    "WorkQueue",
    "RouteTarget",
    "Splitter",
    "SplitterReceipt",
    "ExecutionUnit",
    "Roles",
    "WorkerPolicy",
    "assign_roles",
]
