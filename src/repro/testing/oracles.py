"""N-way differential oracles over the repository's implementations.

For one program the repository has many independent answers to "what can
happen": the axiomatic enumerator (per model), the SC interleaver, the
TSO/PSO store-buffer machines, the ≺-linearization dataflow machine, the
constraint solver, and the static analyses.  Each :class:`Oracle` here
checks one agreement that is a *theorem* of the codebase; a
:class:`Discrepancy` therefore always means a bug (in an
implementation — or, during mutation testing, the seeded mutant doing
its job).

All verdicts are deterministic: enumeration budgets are counting budgets
(never wall-clock), and a program whose state space exceeds them is
reported as *skipped* for that oracle, not compared partially.

The :class:`OracleContext` memoizes enumerations so that the nine
oracles cost ~five enumerations per program rather than ~twenty (the
fence-repair oracle's fenced variants are the one extra cost, and it
bounds itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.enumerate import (
    EnumerationLimits,
    EnumerationResult,
    enumerate_behaviors,
)
from repro.errors import ReproError
from repro.isa.program import Program
from repro.models.registry import get_model
from repro.operational.dataflow import run_dataflow
from repro.operational.sc import run_sc
from repro.operational.storebuffer import run_pso, run_tso

#: Budgets used by fuzzing: counting-only (deterministic), sized so that
#: every profile-shaped program fits comfortably.
FUZZ_LIMITS = EnumerationLimits(max_behaviors=250_000, max_executions=50_000)


class OracleSkip(ReproError):
    """An oracle declined to compare (budget exceeded / not applicable)."""


@dataclass(frozen=True)
class Discrepancy:
    """Two implementations disagreed on one program."""

    oracle: str
    program: str
    detail: str
    model: str | None = None

    def __str__(self) -> str:
        model = f" [{self.model}]" if self.model else ""
        return f"{self.oracle}{model} on {self.program}: {self.detail}"


@dataclass
class OracleContext:
    """Shared per-program cache: axiomatic enumerations are memoized by
    model so oracles can overlap their inputs."""

    program: Program
    limits: EnumerationLimits = FUZZ_LIMITS
    #: optional :class:`~repro.cache.store.BehaviorCache` shared across
    #: oracles, programs and campaigns.
    cache: object = None
    _results: dict = field(default_factory=dict)
    _facts: object = None

    def result(self, model_name: str) -> EnumerationResult:
        if model_name not in self._results:
            self._results[model_name] = enumerate_behaviors(
                self.program, get_model(model_name), self.limits, cache=self.cache
            )
        return self._results[model_name]

    def outcomes(self, model_name: str) -> frozenset:
        """Complete outcome set, or :class:`OracleSkip` on a partial result."""
        result = self.result(model_name)
        if not result.complete:
            raise OracleSkip(
                f"{model_name} enumeration exhausted its budget ({result.status})"
            )
        return result.register_outcomes()

    def facts(self):
        if self._facts is None:
            from repro.analysis.static import compute_static_facts

            self._facts = compute_static_facts(self.program)
        return self._facts

    def enumeration_reasons(self) -> dict[str, str]:
        """Per-model enumeration status, keyed by the *coverage label* of
        each memoized run: the model name (``"weak"``, ``"tso"``, …).  The
        value is ``"complete"`` or the
        :class:`~repro.core.enumerate.ExhaustionReason` value of a partial
        run — one axis of the coverage grid (:mod:`repro.testing.coverage`)."""
        return {
            model_name: "complete" if result.complete else result.reason.value
            for model_name, result in self._results.items()
        }


def _diff(left: frozenset, right: frozenset, left_name: str, right_name: str) -> str:
    """Human-readable outcome-set difference (truncated)."""

    def render(outcome) -> str:
        return "{" + " ".join(
            f"{thread}:{register}={value}"
            for (thread, register), value in sorted(outcome, key=repr)
        ) + "}"

    parts = []
    only_left = sorted(map(render, left - right))
    only_right = sorted(map(render, right - left))
    if only_left:
        parts.append(f"only {left_name}: {', '.join(only_left[:3])}"
                     + (f" (+{len(only_left) - 3} more)" if len(only_left) > 3 else ""))
    if only_right:
        parts.append(f"only {right_name}: {', '.join(only_right[:3])}"
                     + (f" (+{len(only_right) - 3} more)" if len(only_right) > 3 else ""))
    return "; ".join(parts) or "outcome sets differ"


@dataclass(frozen=True)
class Oracle:
    """One differential agreement check.

    ``touches`` names the coverage labels
    (:meth:`OracleContext.enumeration_reasons` keys) of every
    enumeration variant the check may request — the model axis its
    verdicts contribute to in the coverage grid.
    """

    name: str
    description: str
    check: Callable[[OracleContext], list[Discrepancy]]
    applicable: Callable[[Program], bool] = lambda program: True
    touches: tuple[str, ...] = ()


def _mismatch(ctx, oracle, model, axiomatic, reference, ref_name) -> list[Discrepancy]:
    if axiomatic == reference:
        return []
    return [
        Discrepancy(
            oracle=oracle,
            program=ctx.program.name,
            model=model,
            detail=_diff(axiomatic, reference, "axiomatic", ref_name),
        )
    ]


# ---------------------------------------------------------------------------
# axiomatic vs operational, per model


def _check_sc(ctx: OracleContext) -> list[Discrepancy]:
    return _mismatch(ctx, "axiomatic-vs-sc", "sc", ctx.outcomes("sc"),
                     run_sc(ctx.program).outcomes, "sc-machine")


def _check_tso(ctx: OracleContext) -> list[Discrepancy]:
    return _mismatch(ctx, "axiomatic-vs-tso", "tso", ctx.outcomes("tso"),
                     run_tso(ctx.program).outcomes, "tso-machine")


def _check_pso(ctx: OracleContext) -> list[Discrepancy]:
    return _mismatch(ctx, "axiomatic-vs-pso", "pso", ctx.outcomes("pso"),
                     run_pso(ctx.program).outcomes, "pso-machine")


def _check_dataflow(ctx: OracleContext) -> list[Discrepancy]:
    return _mismatch(ctx, "axiomatic-vs-dataflow", "weak", ctx.outcomes("weak"),
                     run_dataflow(ctx.program, "weak").outcomes, "dataflow-machine")


# ---------------------------------------------------------------------------
# engine-vs-engine


def _check_solver(ctx: OracleContext) -> list[Discrepancy]:
    """PR 8's theorem: the constraint solver (SAT encoding of the
    reorder+atomicity axioms, AllSAT + exact replay) produces the same
    behavior set as the axiomatic enumerator — compared byte-for-byte by
    ``loadstore_key``, one bypassing model and one store-atomic model."""
    from repro.analysis.solver import solve_behaviors

    problems = []
    for model_name in ("tso", "weak"):
        axiomatic = ctx.result(model_name)
        if not axiomatic.complete:
            raise OracleSkip(
                f"{model_name} enumeration exhausted its budget ({axiomatic.status})"
            )
        solved = solve_behaviors(
            ctx.program, model_name, ctx.limits, facts=ctx.facts()
        )
        if not solved.complete:
            raise OracleSkip(f"{model_name} solver exhausted its budget")
        axiomatic_keys = sorted(repr(e.loadstore_key()) for e in axiomatic.executions)
        solved_keys = sorted(repr(e.loadstore_key()) for e in solved.executions)
        if axiomatic_keys != solved_keys:
            extra = len(set(solved_keys) - set(axiomatic_keys))
            missing = len(set(axiomatic_keys) - set(solved_keys))
            problems.append(
                (
                    f"behavior sets differ under {model_name}: solver found "
                    f"{len(solved_keys)} vs {len(axiomatic_keys)} axiomatic "
                    f"({extra} extra, {missing} missing)",
                    model_name,
                )
            )
    return [
        Discrepancy("solver-vs-axiomatic", ctx.program.name, detail, model)
        for detail, model in problems
    ]


#: Outcome-set inclusions that are theorems of the model definitions.
#: Reordering and store atomicity are independent axes (the paper's
#: thesis), so the lattice forks: TSO/PSO relax atomicity via the
#: store→load bypass while WEAK stays store-atomic.  ``pso ⊆ weak`` is
#: *not* a theorem — PSO's forwarding admits outcomes the store-atomic
#: WEAK forbids (see tests/corpus/fz-fences-281-min.litmus) — so only
#: same-axis edges are asserted: pure table relaxations with an
#: identical bypass regime, plus bypass addition (sc → tso) and
#: speculation addition (weak → weak-spec), each of which only ever
#: adds behaviors.
INCLUSION_EDGES: tuple[tuple[str, str], ...] = (
    ("sc", "tso"),
    ("tso", "pso"),
    ("sc", "weak"),
    ("weak", "weak-spec"),
)


def _check_inclusion(ctx: OracleContext) -> list[Discrepancy]:
    """The model lattice on outcome sets: sc ⊆ tso ⊆ pso (bypass family)
    and sc ⊆ weak ⊆ weak-spec (store-atomic family)."""
    problems = []
    for weaker, stronger in INCLUSION_EDGES:
        left = ctx.outcomes(weaker)
        right = ctx.outcomes(stronger)
        if not left <= right:
            lost = len(left - right)
            problems.append(
                Discrepancy(
                    "inclusion-chain",
                    ctx.program.name,
                    f"{weaker} ⊄ {stronger}: {lost} outcome(s) lost",
                    f"{weaker}<={stronger}",
                )
            )
    return problems


# ---------------------------------------------------------------------------
# static analysis vs enumeration ground truth


def _check_static(ctx: OracleContext) -> list[Discrepancy]:
    """Soundness and monotonicity of the static delay-set analysis.

    * *Soundness*: if the precise analysis reports no delay edges under a
      model, the program is robust — enumerated outcomes equal SC's.
    * *Monotonicity*: the precise (dataflow-backed) analysis never
      reports a delay edge the syntactic analysis missed.

    A report whose cycle search stopped at its cap claims neither, so
    the oracle skips it.
    """
    from repro.analysis.static import analyze_program

    reports = []
    for model_name in ("tso", "weak"):
        precise = analyze_program(ctx.program, model_name, precise=True,
                                  facts=ctx.facts())
        syntactic = analyze_program(ctx.program, model_name, precise=False)
        if precise.truncated or syntactic.truncated:
            raise OracleSkip("the critical-cycle search stopped at its cap")
        reports.append((model_name, precise, syntactic))

    problems = []
    sc_outcomes = ctx.outcomes("sc")
    for model_name, precise, syntactic in reports:
        precise_edges = {(d.thread, d.first_index, d.second_index)
                         for d in precise.delays}
        syntactic_edges = {(d.thread, d.first_index, d.second_index)
                           for d in syntactic.delays}
        if not precise_edges <= syntactic_edges:
            extra = sorted(precise_edges - syntactic_edges)
            problems.append(
                Discrepancy(
                    "static-vs-enumeration",
                    ctx.program.name,
                    f"precise analysis invented delay edges {extra[:4]}",
                    model_name,
                )
            )
        if not precise.delays:
            model_outcomes = ctx.outcomes(model_name)
            if model_outcomes != sc_outcomes:
                problems.append(
                    Discrepancy(
                        "static-vs-enumeration",
                        ctx.program.name,
                        "no delay edges reported but the program is not "
                        "SC-robust: " + _diff(model_outcomes, sc_outcomes,
                                              model_name, "sc"),
                        model_name,
                    )
                )
    return problems


def _check_speculation(ctx: OracleContext) -> list[Discrepancy]:
    """PR 3's speculation-safety theorem: ``all_safe`` implies the
    alias-speculating model's outcome set equals the base model's."""
    from repro.analysis.static import speculation_safety

    report = speculation_safety(ctx.program, "weak", ctx.facts())
    if not report.all_safe:
        return []  # unsafe loads are allowed; nothing to cross-check
    weak = ctx.outcomes("weak")
    spec = ctx.outcomes("weak-spec")
    if weak == spec:
        return []
    return [
        Discrepancy(
            "speculation-safety",
            ctx.program.name,
            "all loads proved speculation-safe but outcome sets differ: "
            + _diff(spec, weak, "weak-spec", "weak"),
            "weak-spec",
        )
    ]


def _distinct_valued(program: Program) -> bool:
    """Whether every location's stores write literal, pairwise-distinct
    values that also differ from the initial value, no RMW computes a
    value, and no thread stores the same location twice.  On such
    programs every critical-cycle reordering is *observable*, so the
    value-blind static repair must agree with the value-aware
    enumerative one byte-for-byte.  Programs with value coincidences
    (a store rewriting the initial value, two equal stores) or shadowed
    stores (a same-thread same-location store always overwrites the
    earlier one, so cycles through the earlier store never reach final
    memory) can have structurally-live but observationally-dead cycles,
    where the static answer legitimately over-fences."""
    from repro.isa.instructions import Rmw, Store
    from repro.isa.operands import Const

    stored: dict[str, set[int]] = {}
    for thread in program.threads:
        per_thread: set[str] = set()
        for instruction in thread.code:
            if isinstance(instruction, Rmw):
                return False  # RMWs compute/compare values dynamically
            if isinstance(instruction, Store):
                addr = instruction.addr
                value = instruction.value
                if not (isinstance(addr, Const) and isinstance(addr.value, str)):
                    return False  # register-computed address
                if not (isinstance(value, Const) and isinstance(value.value, int)):
                    return False  # computed or pointer value
                if addr.value in per_thread:
                    return False  # shadowed store
                per_thread.add(addr.value)
                values = stored.setdefault(addr.value, set())
                if value.value in values:
                    return False
                values.add(value.value)
    for location, values in stored.items():
        if program.initial_memory.get(location, 0) in values:
            return False
    return True


def _render_solutions(solutions) -> str:
    return (
        " | ".join(
            "{" + ", ".join(str(site) for site in solution) + "}"
            for solution in solutions
        )
        or "(none)"
    )


def _check_fence_repair(ctx: OracleContext) -> list[Discrepancy]:
    """PR 7's theorems: the static set-cover fence repair vs the
    enumerative robust-target synthesis.

    * *Certificates* (always): a static SC-robustness certificate under
      tso/pso/weak means the model's behavior signature (registers ×
      realizable final memory — register outcomes alone miss store-only
      cycles) stays within SC's.
    * *Repair soundness* (always): inserting any static minimal fence
      set makes the program enumeratively SC-robust — the value-blind
      cover may over-fence but never under-fences.
    * *Minimal sets* (distinct-valued programs): the static sets are
      byte-identical to ``synthesize_fences(..., target="robust")``.
      Bounded: ≤ 8 candidate sites and a 256-subset budget; over budget
      is a deterministic skip, never a partial comparison.
    """
    from repro.analysis.fencesynth import behavior_signature, synthesize_fences
    from repro.analysis.sites import insert_fences
    from repro.analysis.static import certify_robustness, repair_fences

    problems = []
    locations = ctx.program.locations()

    def signature(model_name: str) -> frozenset:
        result = ctx.result(model_name)
        if not result.complete:
            raise OracleSkip(
                f"{model_name} enumeration exhausted its budget ({result.status})"
            )
        return behavior_signature(result, locations)

    facts = ctx.facts()
    sc_signature = None
    for model_name in ("tso", "pso", "weak"):
        certificate = certify_robustness(ctx.program, model_name, facts=facts)
        if not certificate.robust:
            continue
        if sc_signature is None:
            sc_signature = signature("sc")
        model_signature = signature(model_name)
        if not model_signature <= sc_signature:
            problems.append(
                Discrepancy(
                    "static-fence-repair",
                    ctx.program.name,
                    f"certified SC-robust but enumeration found "
                    f"{len(model_signature - sc_signature)} non-SC behavior(s)",
                    model_name,
                )
            )
    if problems:
        return problems

    static = repair_fences(ctx.program, "weak", facts=facts)
    if not (static.complete and static.exact and len(static.sites) <= 8):
        return []  # agreement only promised on exact, small programs

    if sc_signature is None:
        sc_signature = signature("sc")
    for solution in static.solutions[:3]:
        fenced = insert_fences(ctx.program, solution)
        result = enumerate_behaviors(fenced, get_model("weak"), ctx.limits)
        if not result.complete:
            raise OracleSkip("fenced-variant enumeration exhausted its budget")
        if not behavior_signature(result, locations) <= sc_signature:
            problems.append(
                Discrepancy(
                    "static-fence-repair",
                    ctx.program.name,
                    "static repair {" + ", ".join(map(str, solution)) + "} "
                    "does not make the program SC-robust",
                    "weak",
                )
            )
    if problems or not _distinct_valued(ctx.program):
        return problems

    enumerative = synthesize_fences(
        ctx.program, "weak", ctx.limits, target="robust", max_subsets=256
    )
    if not enumerative.complete:
        raise OracleSkip(f"enumerative synthesis over budget ({enumerative.reason})")
    if (
        enumerative.already_forbidden != static.already_robust
        or enumerative.solutions != static.solutions
    ):
        problems.append(
            Discrepancy(
                "static-fence-repair",
                ctx.program.name,
                f"minimal fence sets differ: static "
                f"{_render_solutions(static.solutions)} "
                f"(robust={static.already_robust}) vs enumerative "
                f"{_render_solutions(enumerative.solutions)} "
                f"(robust={enumerative.already_forbidden})",
                "weak",
            )
        )
    return problems


ORACLES: tuple[Oracle, ...] = (
    Oracle("axiomatic-vs-sc",
           "axiomatic SC enumeration == interleaving machine", _check_sc,
           touches=("sc",)),
    Oracle("axiomatic-vs-tso",
           "axiomatic TSO enumeration == store-buffer machine", _check_tso,
           touches=("tso",)),
    Oracle("axiomatic-vs-pso",
           "axiomatic PSO enumeration == non-FIFO store-buffer machine",
           _check_pso, touches=("pso",)),
    Oracle("axiomatic-vs-dataflow",
           "axiomatic WEAK enumeration == ≺-linearization machine "
           "(branch-free programs)", _check_dataflow,
           applicable=lambda program: not program.has_branches(),
           touches=("weak",)),
    Oracle("solver-vs-axiomatic",
           "SAT/AllSAT constraint solver == axiomatic enumeration "
           "(loadstore_key-identical, tso and weak)", _check_solver,
           touches=("tso", "weak")),
    Oracle("inclusion-chain",
           "outcome-set lattice sc ⊆ tso ⊆ pso and sc ⊆ weak ⊆ weak-spec "
           "(the two store-atomicity regimes are incomparable)",
           _check_inclusion,
           touches=("sc", "tso", "pso", "weak", "weak-spec")),
    Oracle("static-vs-enumeration",
           "static delay analysis sound & monotone vs enumeration",
           _check_static, touches=("sc", "tso", "weak")),
    Oracle("speculation-safety",
           "statically-safe speculation admits no new outcomes",
           _check_speculation, touches=("weak", "weak-spec")),
    Oracle("static-fence-repair",
           "static set-cover repair == enumerative robust synthesis; "
           "robustness certificates confirmed by enumeration",
           _check_fence_repair, touches=("sc", "tso", "pso", "weak")),
)

_BY_NAME = {oracle.name: oracle for oracle in ORACLES}


def get_oracle(name: str) -> Oracle:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ReproError(f"unknown oracle {name!r}; known oracles: {known}") from None


def oracle_table() -> str:
    """The docs' oracle table, rendered from the registry.

    ``docs/testing.md`` embeds this output verbatim (a doc-sync test
    enforces it), so registering a new oracle here is the single source
    of truth for the CLI listing and the documentation alike.
    """
    lines = ["| oracle | agreement checked | coverage labels |", "|---|---|---|"]
    for oracle in ORACLES:
        labels = ", ".join(f"`{label}`" for label in oracle.touches)
        lines.append(f"| `{oracle.name}` | {oracle.description} | {labels} |")
    return "\n".join(lines)


def run_oracles(
    program: Program,
    names: tuple[str, ...] | None = None,
    limits: EnumerationLimits = FUZZ_LIMITS,
    cache=None,
    context: OracleContext | None = None,
) -> tuple[list[Discrepancy], list[str]]:
    """Run every applicable oracle on ``program``.

    Returns ``(discrepancies, skipped)`` where ``skipped`` names oracles
    that declined to compare (inapplicable or over budget) — skips are
    deterministic for a given program and budget.  ``cache`` memoizes
    the baseline (sequential) enumerations across oracles and
    across runs; verdicts are identical with and without it.

    ``context`` supplies a caller-owned :class:`OracleContext` (it must
    wrap the same ``program``); the caller can then read
    :meth:`OracleContext.enumeration_reasons` afterwards (the coverage
    grid does), or share one context across repeated replays of the same
    program.  When given, ``limits``/``cache`` are taken from it.
    """
    selected = ORACLES if names is None else tuple(get_oracle(n) for n in names)
    if context is not None and context.program is not program:
        raise ReproError("run_oracles: context wraps a different program")
    ctx = context if context is not None else OracleContext(program, limits, cache=cache)
    discrepancies: list[Discrepancy] = []
    skipped: list[str] = []
    for oracle in selected:
        if not oracle.applicable(program):
            skipped.append(oracle.name)
            continue
        try:
            discrepancies.extend(oracle.check(ctx))
        except OracleSkip:
            skipped.append(oracle.name)
    return discrepancies, skipped


__all__ = [
    "FUZZ_LIMITS",
    "Discrepancy",
    "Oracle",
    "OracleContext",
    "OracleSkip",
    "ORACLES",
    "get_oracle",
    "oracle_table",
    "run_oracles",
]
