"""Model-comparison analysis: behavior-set inclusion between models.

A model ``A`` is *no stronger than* ``B`` on a program when every final
register outcome of the program under ``A`` is also an outcome under
``B``.  The paper's models form the chain SC ⊆ TSO ⊆ PSO ⊆ WEAK ⊆
WEAK-SPEC on programs in their common fragment; this module checks such
chains empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.fencesynth import behavior_signature
from repro.core.enumerate import EnumerationLimits, enumerate_behaviors, outcome_sort_key
from repro.isa.program import Program
from repro.models.base import MemoryModel
from repro.models.registry import get_model


@dataclass(frozen=True)
class OutcomeSets:
    """Register-outcome sets per model for one program.

    ``complete`` records, per model, whether the enumeration exhausted
    the behavior set; comparisons against a partial outcome set are only
    lower bounds (see :meth:`conclusive`).
    """

    program_name: str
    outcomes: dict[str, frozenset]
    complete: dict[str, bool] = field(default_factory=dict)

    def count(self, model_name: str) -> int:
        return len(self.outcomes[model_name])

    def is_complete(self, model_name: str) -> bool:
        return self.complete.get(model_name, True)

    def included(self, weaker: str, stronger: str) -> bool:
        """True iff outcomes(weaker) ⊆ outcomes(stronger).

        Note the naming: the *stronger ordering* model (e.g. SC) has fewer
        behaviors; ``included("sc", "tso")`` asks whether every SC outcome
        is also a TSO outcome.
        """
        return self.outcomes[weaker] <= self.outcomes[stronger]

    def conclusive(self, weaker: str, stronger: str) -> bool:
        """Whether :meth:`included` is a definitive verdict.

        A positive inclusion needs the *weaker* (left) side complete — a
        partial left set may be missing the violating outcome; a negative
        inclusion needs the *stronger* (right) side complete — a partial
        right set may be missing the matching outcome."""
        if self.included(weaker, stronger):
            return self.is_complete(weaker)
        return self.is_complete(stronger)

    def only_in(self, model_a: str, model_b: str) -> frozenset:
        """Outcomes observable under ``model_a`` but not ``model_b``."""
        return self.outcomes[model_a] - self.outcomes[model_b]


def outcome_sets(
    program: Program,
    models: tuple[str | MemoryModel, ...],
    limits: EnumerationLimits | None = None,
) -> OutcomeSets:
    """Enumerate the program under each model and collect outcome sets."""
    collected: dict[str, frozenset] = {}
    complete: dict[str, bool] = {}
    for model in models:
        resolved = get_model(model) if isinstance(model, str) else model
        result = enumerate_behaviors(program, resolved, limits)
        collected[resolved.name] = result.register_outcomes()
        complete[resolved.name] = result.complete
    return OutcomeSets(program.name, collected, complete)


@dataclass(frozen=True)
class ChainReport:
    """Result of checking an inclusion chain on a set of programs.

    ``caveats`` lists apparent violations that rest on a *partial*
    outcome set: the missing side may simply not have been enumerated
    yet, so they are reported but do not refute the chain."""

    chain: tuple[str, ...]
    per_program: dict[str, OutcomeSets]
    violations: tuple[str, ...]
    caveats: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return not self.violations


def check_inclusion_chain(
    programs: list[Program],
    chain: tuple[str, ...],
    limits: EnumerationLimits | None = None,
) -> ChainReport:
    """Check that each model in ``chain`` admits a subset of the next
    model's outcomes, on every program."""
    per_program: dict[str, OutcomeSets] = {}
    violations: list[str] = []
    caveats: list[str] = []
    for program in programs:
        sets = outcome_sets(program, chain, limits)
        per_program[program.name] = sets
        for stronger, weaker in zip(chain, chain[1:]):
            if not sets.included(stronger, weaker):
                extra = sets.only_in(stronger, weaker)
                message = (
                    f"{program.name}: {stronger} has {len(extra)} outcome(s) "
                    f"not in {weaker}"
                )
                if sets.conclusive(stronger, weaker):
                    violations.append(message)
                else:
                    caveats.append(f"{message} (partial enumeration — inconclusive)")
    return ChainReport(chain, per_program, tuple(violations), tuple(caveats))


@dataclass(frozen=True)
class RobustnessReport:
    """Is a program's behavior under a weak model indistinguishable from
    SC?  (The practical question behind §8's programming disciplines: a
    robust program may run on the weak machine unchanged.)"""

    program_name: str
    model_name: str
    robust: bool
    #: (registers, final memory) pairs possible under the model but not SC
    extra_behaviors: frozenset
    complete: bool = True  #: False when either enumeration was budget-limited

    def summary(self) -> str:
        caveat = "" if self.complete else " (partial enumeration — lower bound)"
        if self.robust:
            return (
                f"{self.program_name} is robust against {self.model_name}: "
                f"all behaviors are SC behaviors{caveat}"
            )
        samples = []
        for registers, memory in sorted(self.extra_behaviors, key=_behavior_sort_key)[:3]:
            atoms = [f"{t}:{r}={value}" for t, r, _, value in outcome_sort_key(registers)]
            atoms += [f"[{location}]={value}" for location, value in sorted(memory)]
            samples.append("{" + ", ".join(atoms) + "}")
        return (
            f"{self.program_name} is NOT robust against {self.model_name}: "
            f"{len(self.extra_behaviors)} non-SC behavior(s), e.g. {'; '.join(samples)}"
            f"{caveat}"
        )


def _behavior_sort_key(behavior: tuple[frozenset, frozenset]) -> tuple:
    """Registers, then final memory, each ordered by :func:`outcome_sort_key`."""
    registers, memory = behavior
    return outcome_sort_key(registers), outcome_sort_key(((loc, ""), v) for loc, v in memory)


def check_robustness(
    program: Program,
    model: str | MemoryModel = "weak",
    limits: EnumerationLimits | None = None,
) -> RobustnessReport:
    """Decide SC-robustness by exhaustive enumeration under both models,
    comparing their :func:`~repro.analysis.fencesynth.behavior_signature`
    over every location of the program: register outcomes alone miss
    store-only relaxations such as 2+2W, whose non-SC outcome lives
    entirely in final memory.

    When either enumeration stops at a budget the verdict is a lower
    bound (``complete=False``): extra behaviors found are real, but a
    "robust" verdict may miss behaviors beyond the budget."""
    resolved = get_model(model) if isinstance(model, str) else model
    locations = program.locations()
    sc_result = enumerate_behaviors(program, get_model("sc"), limits)
    model_result = enumerate_behaviors(program, resolved, limits)
    extra = behavior_signature(model_result, locations)
    extra -= behavior_signature(sc_result, locations)
    return RobustnessReport(
        program_name=program.name,
        model_name=resolved.name,
        robust=not extra,
        extra_behaviors=extra,
        complete=sc_result.complete and model_result.complete,
    )


def outcome_count_table(
    programs: list[Program],
    models: tuple[str, ...],
    limits: EnumerationLimits | None = None,
) -> str:
    """Render a program × model table of outcome counts."""
    rows = []
    for program in programs:
        sets = outcome_sets(program, models, limits)
        rows.append((program.name, [sets.count(m) for m in models]))
    name_width = max(len("program"), *(len(name) for name, _ in rows)) + 2
    column_width = max(8, *(len(m) for m in models)) + 2
    header = "program".ljust(name_width) + "".join(m.ljust(column_width) for m in models)
    lines = [header, "-" * len(header)]
    for name, counts in rows:
        lines.append(
            name.ljust(name_width)
            + "".join(str(c).ljust(column_width) for c in counts)
        )
    return "\n".join(lines)
