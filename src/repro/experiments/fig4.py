"""FIG4 — observers precede overwriting stores (Store Atomicity rule b).

Paper Figure 4:

    Thread A: S1 x,1; S2 x,2; Fence; L4 y
    Thread B: S3 y,3; S5 y,5; Fence; L6 x

"Observing a Store to y orders the Load before an overwriting Store":
when L4 observes S3 (which S5 later overwrites), rule b inserts L4 ⊑ S5,
so S1 ⊑ S2 ⊑ L6 and L6 cannot observe S1 (must read 2).  When L4 instead
observes S5, no overwriting store separates S5 from L6 and L6 may
observe either S1 or S2.
"""

from __future__ import annotations

from repro.core.enumerate import enumerate_behaviors
from repro.isa.dsl import ProgramBuilder
from repro.models.registry import get_model
from repro.experiments.base import ExperimentResult, executions_where, node_at
from repro.viz.ascii import render

EXPERIMENT_ID = "FIG4"


def build_program():
    builder = ProgramBuilder("fig4")
    a = builder.thread("A")
    a.store("x", 1)  # S1
    a.store("x", 2)  # S2
    a.fence()
    a.load("r4", "y")  # L4
    b = builder.thread("B")
    b.store("y", 3)  # S3
    b.store("y", 5)  # S5
    b.fence()
    b.load("r6", "x")  # L6
    return builder.build()


S1, S2, L4 = ("A", 0), ("A", 1), ("A", 3)
S3, S5, L6 = ("B", 0), ("B", 1), ("B", 3)


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Rule b: observer precedes overwriting store")
    enumeration = enumerate_behaviors(build_program(), get_model("weak"))

    observed_s3 = executions_where(enumeration, r4=3)
    result.claim("some execution has L4 observe S3 (r4=3)", True, bool(observed_s3))

    edge_derived = all(
        execution.graph.before(node_at(execution, *L4).nid, node_at(execution, *S5).nid)
        for execution in observed_s3
    )
    result.claim("whenever r4=3, the closure derives L4 ⊑ S5 (edge b)", True, edge_derived)

    r6_values = {execution.final_registers()[("B", "r6")] for execution in observed_s3}
    result.claim("whenever r4=3, L6 cannot observe S1: r6 is always 2", {2}, r6_values)

    observed_s5 = executions_where(enumeration, r4=5)
    r6_relaxed = {execution.final_registers()[("B", "r6")] for execution in observed_s5}
    # The paper says "L6 can observe either S1 or S2"; the framework also
    # admits the init store of x (value 0), which the paper's prose elides.
    result.claim("when r4=5, L6 may observe S1, S2, or init", {0, 1, 2}, r6_relaxed)

    if observed_s3:
        result.details = render(observed_s3[0].graph)
    return result
