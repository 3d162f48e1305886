"""FIG3 — observed overwrites order stores (Store Atomicity rule a).

Paper Figure 3:

    Thread A: S1 x,1; Fence; S2 y,2; L5 y
    Thread B: S3 y,3; Fence; S4 x,4; L6 x

"When a Store to y is observed to have been overwritten, the stores must
be ordered": when L5 observes S3 (value 3), rule a inserts S2 ⊑ S3, so
S1 ⊑ S2 ⊑ S3 ⊑ S4 and L6 cannot observe S1 (it must read 4).  When L5
instead observes its own thread's S2, no order exists between S2 and S3
and L6 may observe either S1 or S4.
"""

from __future__ import annotations

from repro.core.enumerate import enumerate_behaviors
from repro.isa.dsl import ProgramBuilder
from repro.models.registry import get_model
from repro.experiments.base import ExperimentResult, executions_where, node_at
from repro.viz.ascii import render

EXPERIMENT_ID = "FIG3"


def build_program():
    builder = ProgramBuilder("fig3")
    a = builder.thread("A")
    a.store("x", 1)  # S1
    a.fence()
    a.store("y", 2)  # S2
    a.load("r5", "y")  # L5
    b = builder.thread("B")
    b.store("y", 3)  # S3
    b.fence()
    b.store("x", 4)  # S4
    b.load("r6", "x")  # L6
    return builder.build()


#: Dynamic node positions: (thread, index).
S1, S2, L5 = ("A", 0), ("A", 2), ("A", 3)
S3, S4, L6 = ("B", 0), ("B", 2), ("B", 3)


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Rule a: observed overwrite orders stores")
    enumeration = enumerate_behaviors(build_program(), get_model("weak"))

    observed_s3 = executions_where(enumeration, r5=3)
    result.claim("some execution has L5 observe S3 (r5=3)", True, bool(observed_s3))

    edge_derived = all(
        execution.graph.before(node_at(execution, *S2).nid, node_at(execution, *S3).nid)
        for execution in observed_s3
    )
    result.claim("whenever r5=3, the closure derives S2 ⊑ S3 (edge a)", True, edge_derived)

    r6_when_overwritten = {
        execution.final_registers()[("B", "r6")] for execution in observed_s3
    }
    result.claim("whenever r5=3, L6 cannot observe S1: r6 is always 4", {4}, r6_when_overwritten)

    observed_s2 = executions_where(enumeration, r5=2)
    r6_when_local = {
        execution.final_registers()[("B", "r6")] for execution in observed_s2
    }
    result.claim(
        "when r5=2, S2/S3 stay unordered and L6 may observe S1 or S4",
        {1, 4},
        r6_when_local,
    )
    # With r6=4 no cross-thread observation relates the two stores.  (With
    # r6=1 the closure derives S4 ⊑ S1, which transitively orders S3 ⊑ S2
    # — "no known ordering" in the paper refers to the state before L6
    # resolves.)
    unordered = all(
        not execution.graph.ordered(
            node_at(execution, *S2).nid, node_at(execution, *S3).nid
        )
        for execution in executions_where(enumeration, r5=2, r6=4)
    )
    result.claim("in the r5=2, r6=4 execution S2 and S3 are unordered", True, unordered)

    if observed_s3:
        result.details = render(observed_s3[0].graph)
    return result
