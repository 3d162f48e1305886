"""Core framework: execution graphs, Store Atomicity, enumeration."""

from repro.core.atomicity import check_store_atomicity, close_store_atomicity
from repro.core.candidates import candidate_stores
from repro.core.enumerate import (
    CancellationToken,
    EnumerationCheckpoint,
    EnumerationLimits,
    EnumerationResult,
    EnumerationStats,
    ExhaustionReason,
    enumerate_behaviors,
    resume_enumeration,
)
from repro.core.execution import Execution, ThreadState, instruction_operands
from repro.core.graph import ORDERING_KINDS, EdgeKind, ExecutionGraph, iter_bits
from repro.core.node import INIT_TID, Node
from repro.core.serialization import (
    all_serializations,
    always_before_pairs,
    behavior_cache_key,
    find_serialization,
    is_serializable,
    require_serializable,
)

__all__ = [
    "check_store_atomicity",
    "close_store_atomicity",
    "candidate_stores",
    "CancellationToken",
    "EnumerationCheckpoint",
    "EnumerationLimits",
    "EnumerationResult",
    "EnumerationStats",
    "ExhaustionReason",
    "enumerate_behaviors",
    "resume_enumeration",
    "Execution",
    "ThreadState",
    "instruction_operands",
    "ORDERING_KINDS",
    "EdgeKind",
    "ExecutionGraph",
    "iter_bits",
    "INIT_TID",
    "Node",
    "all_serializations",
    "always_before_pairs",
    "behavior_cache_key",
    "find_serialization",
    "is_serializable",
    "require_serializable",
]
