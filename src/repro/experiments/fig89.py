"""FIG8_9 — address-aliasing speculation adds new behaviors (paper §5).

Paper Figure 8:

    Thread A: S1 x,w; Fence; S2 y,2; S4 y,4; Fence; S5 x,z
    Thread B: L3 y; Fence; r6 = L6 x; S7 [r6],7; r8 = L8 y

Location ``x`` holds a *pointer*.  ``S7`` stores through ``r6``, so
whether ``S7`` and ``L8`` alias is data-dependent.  Non-speculatively,
L8 may not be reordered until the instruction producing S7's address
(L6) has executed — the subtle ``L6 ≺ L8`` dependency — so in behaviors
with ``source(L3)=S2`` and ``source(L6)=S5`` (``r6=z``), the chain
``S2 ⊑ S4 ⊑ S5 ⊑ L6 ⊑ L8`` forbids ``r8 = 2``.

With aliasing speculation the dependency is dropped; L8 may resolve
before L6 and observe S2 (Figure 9, rightmost graph) — a *new* behavior,
while every non-speculative behavior remains valid (middle graph).
Executions where the prediction fails (the addresses do alias after all)
are rolled back, i.e. discarded by the enumerator.
"""

from __future__ import annotations

from repro.core.enumerate import _enumerate_full_eligibility, enumerate_behaviors
from repro.isa.dsl import ProgramBuilder
from repro.isa.operands import Reg
from repro.models.registry import get_model
from repro.experiments.base import (
    ExperimentResult,
    executions_where,
    loadstore_keys,
    register_projection,
)

EXPERIMENT_ID = "FIG8_9"


def build_program():
    builder = ProgramBuilder("fig8")
    # x starts out holding a valid pointer (to w), as the paper's pointer
    # idiom presumes.
    builder.init("x", "w")
    a = builder.thread("A")
    a.store("x", "w")  # S1 x,w
    a.fence()
    a.store("y", 2)  # S2
    a.store("y", 4)  # S4
    a.fence()
    a.store("x", "z")  # S5 x,z
    b = builder.thread("B")
    b.load("r3", "y")  # L3
    b.fence()
    b.load("r6", "x")  # L6 — loads the pointer
    b.store(Reg("r6"), 7)  # S7 [r6],7 — store through the pointer
    b.load("r8", "y")  # L8
    return builder.build()


def build_aliasing_program():
    """A variant where the pointer CAN point at ``y`` (S5 x,y), so the
    no-alias prediction is sometimes wrong and speculation must roll back
    (§5.2: "L8 and any instructions which depend upon it must be thrown
    away and re-tried")."""
    builder = ProgramBuilder("fig8-alias")
    builder.init("x", "w")
    a = builder.thread("A")
    a.store("x", "w")
    a.fence()
    a.store("y", 2)
    a.store("y", 4)
    a.fence()
    a.store("x", "y")  # the pointer now aliases location y
    b = builder.thread("B")
    b.load("r3", "y")
    b.fence()
    b.load("r6", "x")
    b.store(Reg("r6"), 7)
    b.load("r8", "y")
    return builder.build()


_REGS = ("r3", "r6", "r8")



def run() -> ExperimentResult:
    result = ExperimentResult(
        EXPERIMENT_ID, "Address-aliasing speculation introduces new behaviors"
    )
    program = build_program()
    nonspec = enumerate_behaviors(program, get_model("weak"))
    spec = enumerate_behaviors(program, get_model("weak-spec"))

    nonspec_outcomes = register_projection(nonspec, _REGS)
    spec_outcomes = register_projection(spec, _REGS)

    pictured_nonspec = executions_where(nonspec, r3=2, r6="z")
    r8_nonspec = {e.final_registers()[("B", "r8")] for e in pictured_nonspec}
    result.claim(
        "non-speculative: with r3=2 and r6=z, L8 cannot observe S2 (r8=4 only)",
        {4},
        r8_nonspec,
    )

    new_behavior = bool(executions_where(spec, r3=2, r6="z", r8=2))
    result.claim(
        "speculative: the new behavior r3=2, r6=z, r8=2 exists (Fig 9 right)",
        True,
        new_behavior,
    )
    result.claim(
        "every non-speculative behavior remains valid under speculation",
        True,
        nonspec_outcomes <= spec_outcomes,
    )
    result.claim(
        "speculation strictly enlarges the behavior set",
        True,
        spec_outcomes > nonspec_outcomes,
    )
    # In the paper's program the pointer is never y, so predictions never
    # fail; the aliasing variant makes the prediction wrong in some
    # behaviors and exercises the rollback path.  The paper's procedure
    # (every eligible load branched on) speculates past unknown addresses;
    # the enumerator's stable-load reduction mostly waits for them, so
    # the rollback claim runs on the former and the latter must reach
    # the same executions with no more resolutions.
    alias_program = build_aliasing_program()
    alias_nonspec = enumerate_behaviors(alias_program, get_model("weak"))
    alias_spec_full = _enumerate_full_eligibility(alias_program, get_model("weak-spec"))
    alias_spec = enumerate_behaviors(alias_program, get_model("weak-spec"))
    result.claim(
        "aliasing variant: failed speculations are rolled back",
        True,
        alias_spec_full.stats.rolled_back > 0,
    )
    result.claim(
        "aliasing variant: the stable-load reduction reaches the same "
        "executions with no more resolutions",
        True,
        loadstore_keys(alias_spec) == loadstore_keys(alias_spec_full)
        and alias_spec.stats.resolutions <= alias_spec_full.stats.resolutions,
    )
    result.claim(
        "aliasing variant: non-speculative behaviors all remain valid",
        True,
        register_projection(alias_nonspec, _REGS)
        <= register_projection(alias_spec, _REGS),
    )

    extra = sorted(spec_outcomes - nonspec_outcomes)
    result.details = (
        f"non-speculative outcomes (r3, r6, r8): {len(nonspec_outcomes)}\n"
        f"speculative outcomes:                  {len(spec_outcomes)}\n"
        f"speculation-only outcomes: {extra}\n"
        f"aliasing-variant rollbacks: {alias_spec_full.stats.rolled_back} "
        f"(stable-load reduction: {alias_spec.stats.rolled_back})\n"
        f"aliasing-variant resolutions: {alias_spec_full.stats.resolutions} "
        f"(stable-load reduction: {alias_spec.stats.resolutions})"
    )
    return result
