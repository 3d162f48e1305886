"""SC-robustness certificates and lattice portability verdicts.

A program is **SC-robust** under model M iff no critical cycle contains
a delayed (unenforced) program-order edge — equivalently, its behavior
signature under M collapses to its SC signature.  The static analysis
decides this without enumeration, and the verdict discipline follows
the provenance rules of :mod:`repro.analysis.static.conflict`:

* live cycles are an over-approximation (conflict edges use may-alias,
  enforcement is definite-only), so a **robust** certificate — no live
  cycles at all — is sound unconditionally, even on register-address
  programs;
* a **non-robust** verdict is definite only when some live cycle is
  exact (single certain addresses, unconditional paths); otherwise the
  program degrades to *possibly-not-robust* instead of being wrongly
  certified either way;
* a cycle search cut short by its cap (``StaticReport.truncated``)
  certifies nothing: the missing cycles could be live, so the verdict
  is at best *possibly-not-robust* (*possibly-not-portable*).

:func:`check_portability` extends this across the SC ⊆ TSO ⊆ PSO ⊆
WEAK lattice: "verified under TSO — is it safe under PSO?" means *does
the weaker model wake any critical cycle the verified model kept
dead?*  A cycle already (exactly) live under the verified model is
accepted — the developer has signed off on its outcomes — so each step
reports only the newly-breaking cycles, the delay edges that wake
them, and the minimal fence sets that put them back to sleep (solved
by the same all-minimum-covers machinery as
:mod:`repro.analysis.static.fencerepair`).

Every certificate is enumeration-checkable: ``robust`` here must imply
``synthesize_fences(..., target="robust").already_forbidden`` — the
TAB-FENCEREPAIR experiment and the ``static-fence-repair`` fuzz oracle
assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.sites import FenceSite, candidate_sites
from repro.analysis.static.conflict import (
    DelayEdge,
    StaticAccess,
    StaticReport,
    _conflicting,
    _cycle_po_pairs,
    analyze_program,
    collect_accesses,
    critical_cycle_search,
    enforced_order,
)
from repro.analysis.static.dataflow import StaticFacts, compute_static_facts
from repro.analysis.static.fencerepair import (
    FenceRepairResult,
    _all_minimum_covers,
    repair_fences,
)
from repro.isa.program import Program
from repro.models.base import MemoryModel
from repro.models.registry import get_model

__all__ = [
    "LATTICE",
    "PortabilityReport",
    "PortabilityStep",
    "RobustnessCertificate",
    "certify_robustness",
    "check_portability",
]

#: The statically-proven inclusion chain (see lint.statically_contained).
LATTICE = ("sc", "tso", "pso", "weak")


@dataclass
class RobustnessCertificate:
    """The static robustness verdict for one program under one model."""

    program_name: str
    model_name: str
    robust: bool
    definite: bool  #: the verdict cannot be an aliasing/path artifact
    delays: tuple[DelayEdge, ...]
    breaking_cycles: tuple[tuple[StaticAccess, ...], ...]
    repairs: list[tuple[FenceSite, ...]]  #: all minimal repairs (empty if robust)
    repair: FenceRepairResult | None = None
    truncated: bool = False  #: the cycle search stopped at its cap

    @property
    def verdict(self) -> str:
        if self.robust:
            return "robust"
        return "not-robust" if self.definite else "possibly-not-robust"

    def summary(self) -> str:
        lines = [f"{self.program_name} under {self.model_name}: {self.verdict}"]
        for cycle in self.breaking_cycles[:6]:
            lines.append("  breaks: " + " -> ".join(str(a) for a in cycle))
        if len(self.breaking_cycles) > 6:
            lines.append(f"  ... and {len(self.breaking_cycles) - 6} more")
        if self.repairs:
            rendered = " | ".join(
                "{" + ", ".join(str(site) for site in solution) + "}"
                for solution in self.repairs
            )
            lines.append(f"  minimal repair(s): {rendered}")
        elif self.truncated:
            lines.append("  the cycle search stopped at its cap: nothing certified")
        elif not self.robust:
            lines.append("  no full-fence repair covers every delay edge")
        return "\n".join(lines)


def certify_robustness(
    program: Program,
    model: MemoryModel | str,
    *,
    facts: StaticFacts | None = None,
    report: StaticReport | None = None,
) -> RobustnessCertificate:
    """Certify (or refute) SC-robustness of ``program`` under ``model``
    statically, with the minimal repairs attached to a refutation."""
    if isinstance(model, str):
        model = get_model(model)
    repair = repair_fences(program, model, facts=facts, report=report)
    robust = repair.already_robust
    definite = True if robust else any(delay.exact for delay in repair.delays)
    return RobustnessCertificate(
        program_name=program.name,
        model_name=model.name,
        robust=robust,
        definite=definite,
        delays=repair.delays,
        breaking_cycles=repair.report.live_cycles,
        repairs=list(repair.solutions),
        repair=repair,
        truncated=repair.report.truncated,
    )


@dataclass
class PortabilityStep:
    """One lattice step: porting a program verified under
    ``source_model`` to the weaker ``target_model``."""

    source_model: str
    target_model: str
    portable: bool
    definite: bool
    new_cycles: tuple[tuple[StaticAccess, ...], ...]  #: woken by the target
    new_delays: tuple[DelayEdge, ...]  #: their relaxed po edges
    repairs: list[tuple[FenceSite, ...]]  #: minimal sets re-killing them
    truncated: bool = False  #: the cycle search stopped at its cap

    @property
    def verdict(self) -> str:
        if self.portable:
            return "portable"
        return "not-portable" if self.definite else "possibly-not-portable"

    def summary(self) -> str:
        head = f"{self.source_model} -> {self.target_model}: {self.verdict}"
        if self.truncated:
            head += " [cycle search stopped at its cap]"
        if self.portable:
            return head
        lines = [head]
        for cycle in self.new_cycles[:6]:
            lines.append("  wakes: " + " -> ".join(str(a) for a in cycle))
        if self.repairs:
            rendered = " | ".join(
                "{" + ", ".join(str(site) for site in solution) + "}"
                for solution in self.repairs
            )
            lines.append(f"  repair(s): {rendered}")
        return "\n".join(lines)


@dataclass
class PortabilityReport:
    """Portability of one program from ``verified_under`` down the
    weaker part of the lattice."""

    program_name: str
    verified_under: str
    steps: tuple[PortabilityStep, ...]

    def step(self, target_model: str) -> PortabilityStep:
        for step in self.steps:
            if step.target_model == target_model:
                return step
        raise KeyError(target_model)

    def summary(self) -> str:
        lines = [f"{self.program_name} verified under {self.verified_under}:"]
        for step in self.steps:
            lines.extend("  " + line for line in step.summary().splitlines())
        if not self.steps:
            lines.append("  (no weaker models in the lattice)")
        return "\n".join(lines)


def _cycle_exact(cycle: tuple[StaticAccess, ...]) -> bool:
    return all(access.exact for access in cycle)


def check_portability(
    program: Program,
    verified_under: str = "sc",
    targets: tuple[str, ...] | None = None,
    *,
    facts: StaticFacts | None = None,
) -> PortabilityReport:
    """For each model weaker than ``verified_under`` in the lattice (or
    the explicit ``targets``): which critical cycles does the weaker
    model wake, and which fence sets re-kill them?

    A cycle only counts as already-accepted when it is **exactly** live
    under the verified model — an over-approximated "live" under the
    source must not excuse a genuinely-breaking cycle under the target,
    so approximate programs degrade toward more reported cycles, never
    fewer.
    """
    if verified_under not in LATTICE:
        raise ValueError(
            f"verified_under must be one of {LATTICE}, got {verified_under!r}"
        )
    if targets is None:
        targets = LATTICE[LATTICE.index(verified_under) + 1 :]
    if facts is None:
        facts = compute_static_facts(program)
    source = get_model(verified_under)
    accesses = collect_accesses(program, facts)
    cycles, truncated = critical_cycle_search(accesses, _conflicting)
    sites = candidate_sites(program)

    def relaxed_pairs(model: MemoryModel):
        enforced = {
            thread.name: enforced_order(
                thread, model, facts, bypass_coherence=True
            )
            for thread in program.threads
        }
        by_cycle = {}
        for cycle in cycles:
            by_cycle[cycle] = tuple(
                (first, second)
                for first, second in _cycle_po_pairs(cycle)
                if not enforced[first.thread][first.index][second.index]
            )
        return by_cycle

    source_relaxed = relaxed_pairs(source)
    steps = []
    for target_name in targets:
        target = get_model(target_name)
        target_relaxed = relaxed_pairs(target)
        new_cycles = []
        delay_exact: dict[tuple[str, int, int], bool] = {}
        for cycle in cycles:
            if not target_relaxed[cycle]:
                continue  # still dead under the target
            accepted = bool(source_relaxed[cycle]) and _cycle_exact(cycle)
            if accepted:
                continue  # exactly live under the source: already signed off
            new_cycles.append(cycle)
            for first, second in target_relaxed[cycle]:
                key = (first.thread, first.index, second.index)
                delay_exact[key] = delay_exact.get(key, False) or _cycle_exact(cycle)
        new_delays = tuple(
            sorted(
                DelayEdge(thread, first, second, exact=exact)
                for (thread, first, second), exact in delay_exact.items()
            )
        )
        covers = [
            frozenset(
                position
                for position, delay in enumerate(new_delays)
                if delay.thread == site.thread and delay.covers(site.position)
            )
            for site in sites
        ]
        _best, index_solutions, _nodes, _complete = _all_minimum_covers(
            len(new_delays), covers, [1] * len(sites)
        )
        repairs = [
            tuple(sites[index] for index in solution)
            for solution in index_solutions
            if solution  # drop the empty cover of an empty universe
        ]
        portable = not new_cycles and not truncated
        steps.append(
            PortabilityStep(
                source_model=verified_under,
                target_model=target_name,
                portable=portable,
                definite=portable or any(_cycle_exact(cycle) for cycle in new_cycles),
                new_cycles=tuple(new_cycles),
                new_delays=new_delays,
                repairs=repairs,
                truncated=truncated,
            )
        )
    return PortabilityReport(
        program_name=program.name,
        verified_under=verified_under,
        steps=tuple(steps),
    )
