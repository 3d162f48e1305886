"""FIG10_11 — TSO is non-atomic; grey bypass edges capture it (paper §6).

Paper Figure 10:

    Thread A: S1 x,1; S2 x,2; S3 z,3; L4 z; L6 y
    Thread B: S5 y,5; S7 y,7; S8 z,8; L9 z; L10 x

The pictured TSO execution has ``L4 = 3`` and ``L9 = 8`` satisfied from
the local store buffers before those stores are globally visible, which
lets ``L6 = 5`` and ``L10 = 1`` observe the *first* stores of the other
thread.  Figure 11 examines it under three treatments:

* aggressive reordering (WEAK): permitted — "these rules are very
  lenient and permit any TSO execution",
* naive TSO (Store→Load relaxed, source edges kept in ``⊑``): the
  execution is *inconsistent* — Store Atomicity derives a contradiction,
  so simple globally-applicable reordering rules cannot capture TSO,
* TSO with correct bypass (grey edges excluded from ``⊑``): permitted.

We additionally validate the whole behavior set against the operational
store-buffer machine.
"""

from __future__ import annotations

from repro.core.enumerate import enumerate_behaviors
from repro.isa.dsl import ProgramBuilder
from repro.models.registry import get_model
from repro.operational.storebuffer import run_tso
from repro.experiments.base import ExperimentResult, executions_where, node_at

EXPERIMENT_ID = "FIG10_11"


def build_program():
    builder = ProgramBuilder("fig10")
    a = builder.thread("A")
    a.store("x", 1)  # S1
    a.store("x", 2)  # S2
    a.store("z", 3)  # S3
    a.load("r4", "z")  # L4
    a.load("r6", "y")  # L6
    b = builder.thread("B")
    b.store("y", 5)  # S5
    b.store("y", 7)  # S7
    b.store("z", 8)  # S8
    b.load("r9", "z")  # L9
    b.load("r10", "x")  # L10
    return builder.build()


#: The execution of Figure 10.
PAPER_OUTCOME = frozenset(
    {(("A", "r4"), 3), (("A", "r6"), 5), (("B", "r9"), 8), (("B", "r10"), 1)}
)

S3, L4 = ("A", 2), ("A", 3)
S8, L9 = ("B", 2), ("B", 3)


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "TSO bypass: a non-atomic memory model")
    program = build_program()

    weak = enumerate_behaviors(program, get_model("weak"))
    naive = enumerate_behaviors(program, get_model("naive-tso"))
    tso = enumerate_behaviors(program, get_model("tso"))
    sc = enumerate_behaviors(program, get_model("sc"))
    operational = run_tso(program)

    result.claim(
        "aggressive reordering (WEAK) permits the Figure 10 execution",
        True,
        PAPER_OUTCOME in weak.register_outcomes(),
    )
    result.claim(
        "naive TSO cannot produce it (the center graph is inconsistent)",
        False,
        PAPER_OUTCOME in naive.register_outcomes(),
    )
    result.claim(
        "TSO with grey bypass edges permits it (the right graph)",
        True,
        PAPER_OUTCOME in tso.register_outcomes(),
    )
    result.claim(
        "SC forbids it",
        False,
        PAPER_OUTCOME in sc.register_outcomes(),
    )
    result.claim(
        "axiomatic TSO equals the operational store-buffer machine",
        True,
        tso.register_outcomes() == operational.outcomes,
    )

    # Inspect the pictured TSO execution: both same-thread observations are
    # grey (bypass) edges excluded from ⊑.
    pictured = [
        execution
        for execution in executions_where(tso, r4=3, r6=5, r9=8, r10=1)
    ]
    grey_ok = all(
        (node_at(e, *S3).nid, node_at(e, *L4).nid) in e.graph.bypass_edges()
        and (node_at(e, *S8).nid, node_at(e, *L9).nid) in e.graph.bypass_edges()
        and not e.graph.before(node_at(e, *S3).nid, node_at(e, *L4).nid)
        for e in pictured
    )
    result.claim(
        "in the pictured execution S3→L4 and S8→L9 are grey edges outside ⊑",
        True,
        bool(pictured) and grey_ok,
    )

    result.details = (
        f"distinct register outcomes: weak={len(weak.register_outcomes())}, "
        f"naive-tso={len(naive.register_outcomes())}, "
        f"tso={len(tso.register_outcomes())}, sc={len(sc.register_outcomes())}, "
        f"operational-tso={len(operational.outcomes)}"
    )
    return result
