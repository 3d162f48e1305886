"""FIG5 — unordered same-address pairs order third parties (rule c).

Paper Figure 5:

    Thread A: S1 x,1; Fence; L3 y; L5 y
    Thread B: S2 y,2; Fence; S6 z,6
    Thread C: S4 y,4; Fence; L7 z; Fence; S8 x,8; L9 x

With L3 = 2 (observes S2), L5 = 4 (observes S4) and L7 = 6, the two
store/load pairings to y cannot be interleaved even though S2 and S4
stay unordered; every serialization orders the mutual ancestor S1 of
{L3, L5} before the mutual successor L7 of {S2, S4}.  Rule c inserts
edge c: S1 ⊑ L7, hence S1 ⊑ L7 ⊑ S8 ⊑ L9 and L9 must read 8.
"""

from __future__ import annotations

from repro.core.enumerate import enumerate_behaviors
from repro.isa.dsl import ProgramBuilder
from repro.models.registry import get_model
from repro.experiments.base import ExperimentResult, executions_where, node_at
from repro.viz.ascii import render

EXPERIMENT_ID = "FIG5"


def build_program():
    builder = ProgramBuilder("fig5")
    a = builder.thread("A")
    a.store("x", 1)  # S1
    a.fence()
    a.load("r3", "y")  # L3
    a.load("r5", "y")  # L5
    b = builder.thread("B")
    b.store("y", 2)  # S2
    b.fence()
    b.store("z", 6)  # S6
    c = builder.thread("C")
    c.store("y", 4)  # S4
    c.fence()
    c.load("r7", "z")  # L7
    c.fence()
    c.store("x", 8)  # S8
    c.load("r9", "x")  # L9
    return builder.build()


S1, L3, L5 = ("A", 0), ("A", 2), ("A", 3)
S2, S6 = ("B", 0), ("B", 2)
S4, L7, S8, L9 = ("C", 0), ("C", 2), ("C", 4), ("C", 5)


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Rule c: parallel observation pairs order outsiders")
    enumeration = enumerate_behaviors(build_program(), get_model("weak"))

    pictured = executions_where(enumeration, r3=2, r5=4, r7=6)
    result.claim("the pictured execution (r3=2, r5=4, r7=6) exists", True, bool(pictured))

    edge_c = all(
        execution.graph.before(node_at(execution, *S1).nid, node_at(execution, *L7).nid)
        for execution in pictured
    )
    result.claim("rule c derives S1 ⊑ L7 (edge c)", True, edge_c)

    stores_unordered = all(
        not execution.graph.ordered(
            node_at(execution, *S2).nid, node_at(execution, *S4).nid
        )
        for execution in pictured
    )
    result.claim("S2 and S4 remain unordered (the ambiguity is real)", True, stores_unordered)

    r9_values = {execution.final_registers()[("C", "r9")] for execution in pictured}
    result.claim("L9 cannot observe the overwritten S1: r9 is always 8", {8}, r9_values)

    # Control: without the crossed observations, L9 may still observe S1.
    relaxed = {
        execution.final_registers()[("C", "r9")]
        for execution in enumeration.executions
    }
    result.claim("in other executions L9 can observe S1 (r9=1 occurs overall)", True, 1 in relaxed)

    if pictured:
        result.details = render(pictured[0].graph)
    return result
