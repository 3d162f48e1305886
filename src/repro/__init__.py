"""repro — an executable reproduction of

    "Memory Model = Instruction Reordering + Store Atomicity"
    Arvind and Jan-Willem Maessen, ISCA 2006.

The package mechanizes the paper's framework: memory models are defined
by thread-local instruction-reordering axioms plus the Store Atomicity
property, program executions are partially ordered graphs, and all
behaviors of a multithreaded program are enumerable under any
store-atomic model (plus the paper's non-atomic TSO extension).

Quickstart::

    from repro import ProgramBuilder, enumerate_behaviors, get_model

    builder = ProgramBuilder("SB")
    p0 = builder.thread("P0"); p0.store("x", 1); p0.load("r1", "y")
    p1 = builder.thread("P1"); p1.store("y", 1); p1.load("r2", "x")
    result = enumerate_behaviors(builder.build(), get_model("weak"))
    print(len(result), "distinct executions")
"""

from repro.core import (
    CancellationToken,
    EnumerationCheckpoint,
    EnumerationLimits,
    EnumerationResult,
    ExhaustionReason,
    Execution,
    check_store_atomicity,
    close_store_atomicity,
    enumerate_behaviors,
    find_serialization,
    is_serializable,
    resume_enumeration,
)
from repro.isa import Program, ProgramBuilder, Thread, assemble, assemble_program
from repro.models import (
    NAIVE_TSO,
    PSO,
    SC,
    TSO,
    WEAK,
    WEAK_CORR,
    WEAK_SPEC,
    MemoryModel,
    available_models,
    get_model,
)

__version__ = "1.0.0"

__all__ = [
    "CancellationToken",
    "EnumerationCheckpoint",
    "EnumerationLimits",
    "EnumerationResult",
    "ExhaustionReason",
    "Execution",
    "resume_enumeration",
    "check_store_atomicity",
    "close_store_atomicity",
    "enumerate_behaviors",
    "find_serialization",
    "is_serializable",
    "Program",
    "ProgramBuilder",
    "Thread",
    "assemble",
    "assemble_program",
    "MemoryModel",
    "SC",
    "TSO",
    "NAIVE_TSO",
    "PSO",
    "WEAK",
    "WEAK_SPEC",
    "WEAK_CORR",
    "available_models",
    "get_model",
    "__version__",
]
