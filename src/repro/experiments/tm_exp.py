"""TAB-TM — transactions as atomic groups (§8 future work).

Explains the "big-step, all-or-nothing" semantics of transactions with
the framework's small steps: enumerate behaviors normally, then keep
those admitting a serialization in which each block is contiguous.

Claims checked:

* the unprotected read-modify-write counter loses updates (final 1
  possible) under SC — and of course under WEAK,
* wrapping each increment in an atomic block forbids the lost update on
  top of EITHER model (transaction serializability subsumes the
  reordering differences between them),
* the transactional counter equals the fetch-and-add implementation,
* read-only transactions see consistent snapshots: a transaction reading
  x then y cannot observe another transaction's writes torn in half.
"""

from __future__ import annotations

from repro.core.enumerate import enumerate_behaviors
from repro.isa.dsl import ProgramBuilder
from repro.models.registry import get_model
from repro.tm import AtomicBlock, enumerate_transactional
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "TAB-TM"


def build_counter():
    """Two unprotected load-add-store increments of a shared counter."""
    builder = ProgramBuilder("tm-counter")
    for name, r_in, r_out in (("A", "r1", "r3"), ("B", "r2", "r4")):
        thread = builder.thread(name)
        thread.load(r_in, "c")
        thread.add(r_out, r_in, 1)
        thread.store("c", r_out)
    return builder.build()


COUNTER_BLOCKS = (AtomicBlock("A", 0, 3), AtomicBlock("B", 0, 3))


def build_snapshot():
    """A writer updates x and y inside a transaction; a reader snapshots
    both inside its own transaction.  A torn read is r1=1 ∧ r2=0."""
    builder = ProgramBuilder("tm-snapshot")
    writer = builder.thread("W")
    writer.store("x", 1)
    writer.store("y", 1)
    reader = builder.thread("R")
    reader.load("r1", "x")
    reader.load("r2", "y")
    return builder.build()


SNAPSHOT_BLOCKS = (AtomicBlock("W", 0, 2), AtomicBlock("R", 0, 2))


def _counter_finals(executions):
    values = set()
    for execution in executions:
        values |= set(execution.memory_finals()["c"])
    return values


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Transactions as atomic groups of memory ops")
    counter = build_counter()

    plain = enumerate_behaviors(counter, get_model("sc"))
    result.claim(
        "unprotected counter can lose an update under SC (final c ∈ {1,2})",
        {1, 2},
        _counter_finals(plain.executions),
    )

    for model_name in ("sc", "weak"):
        transactional = enumerate_transactional(counter, COUNTER_BLOCKS, model_name)
        result.claim(
            f"atomic blocks forbid the lost update on top of {model_name} "
            "(final c = 2 always)",
            {2},
            _counter_finals(transactional.executions),
        )
        result.claim(
            f"some {model_name} behaviors are rejected by block atomicity",
            True,
            transactional.rejected > 0,
        )

    fadd = ProgramBuilder("fadd-counter")
    fadd.thread("A").fetch_add("r1", "c", 1)
    fadd.thread("B").fetch_add("r2", "c", 1)
    fadd_result = enumerate_behaviors(fadd.build(), get_model("sc"))
    result.claim(
        "the transactional counter's final memory equals fetch-and-add's",
        _counter_finals(fadd_result.executions),
        _counter_finals(enumerate_transactional(counter, COUNTER_BLOCKS, "sc").executions),
    )

    snapshot = enumerate_transactional(build_snapshot(), SNAPSHOT_BLOCKS, "weak")
    torn = any(
        execution.final_registers()[("R", "r1")] == 1
        and execution.final_registers()[("R", "r2")] == 0
        for execution in snapshot.executions
    )
    result.claim(
        "snapshot transactions never observe a torn write (r1=1 ∧ r2=0), "
        "even over WEAK",
        False,
        torn,
    )

    result.details = (
        f"counter/sc: {len(plain)} plain executions; transactional keeps "
        f"{len(enumerate_transactional(counter, COUNTER_BLOCKS, 'sc'))}\n"
        f"snapshot/weak: {len(snapshot)} executions kept, "
        f"{snapshot.rejected} rejected"
    )
    return result
