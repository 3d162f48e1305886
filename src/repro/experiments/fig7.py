"""FIG7 — the closure cascades across locations (edges a → b → c → d).

Paper Figure 7:

    Thread A: S1 x,1; Fence; S3 y,3; L6 y
    Thread B: S4 y,4; Fence; L5 x
    Thread C: S2 x,2

"Store atomicity may need to be enforced on multiple locations at one
time": after L5 observes S2 (edge a) and L6 observes S4 (edge b), rule a
on L6 inserts S3 ⊑ S4 (edge c).  That reveals S1 ⊑ S3 ⊑ S4 ⊑ L5, i.e.
S1 ⊑ L5, so rule a on L5 must also insert S1 ⊑ S2 (edge d).  The paper's
point: "we continue the process of adding dependencies until Store
Atomicity is satisfied" — one inserted edge exposes the need for another.
"""

from __future__ import annotations

from repro.core.enumerate import enumerate_behaviors
from repro.isa.dsl import ProgramBuilder
from repro.models.registry import get_model
from repro.experiments.base import ExperimentResult, executions_where, node_at
from repro.viz.ascii import render

EXPERIMENT_ID = "FIG7"


def build_program():
    builder = ProgramBuilder("fig7")
    a = builder.thread("A")
    a.store("x", 1)  # S1
    a.fence()
    a.store("y", 3)  # S3
    a.load("r6", "y")  # L6
    b = builder.thread("B")
    b.store("y", 4)  # S4
    b.fence()
    b.load("r5", "x")  # L5
    c = builder.thread("C")
    c.store("x", 2)  # S2
    return builder.build()


S1, S3, L6 = ("A", 0), ("A", 2), ("A", 3)
S4, L5 = ("B", 0), ("B", 2)
S2 = ("C", 0)


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Closure cascade across locations")
    enumeration = enumerate_behaviors(build_program(), get_model("weak"))

    pictured = executions_where(enumeration, r5=2, r6=4)
    result.claim("the pictured execution (L5=2, L6=4) exists", True, bool(pictured))

    edge_c = all(
        execution.graph.before(node_at(execution, *S3).nid, node_at(execution, *S4).nid)
        for execution in pictured
    )
    result.claim("rule a derives S3 ⊑ S4 (edge c)", True, edge_c)

    edge_d = all(
        execution.graph.before(node_at(execution, *S1).nid, node_at(execution, *S2).nid)
        for execution in pictured
    )
    result.claim("the cascade then derives S1 ⊑ S2 (edge d)", True, edge_d)

    # Control: with L6 observing its own S3, S1 and S2 may stay unordered.
    control = executions_where(enumeration, r5=2, r6=3)
    control_unordered = any(
        not execution.graph.ordered(
            node_at(execution, *S1).nid, node_at(execution, *S2).nid
        )
        for execution in control
    )
    result.claim(
        "without edge b (r6=3), S1 and S2 can remain unordered",
        True,
        control_unordered,
    )

    if pictured:
        result.details = render(pictured[0].graph)
    return result
