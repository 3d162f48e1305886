"""Static minimal fence repair: weighted set cover over delay edges.

:func:`repro.analysis.static.conflict.analyze_program` computes, in
polynomial time, the **delay edges** — program-order pairs inside live
critical cycles that the model leaves unenforced.  By Shasha & Snir
(paper §7) a critical cycle is observable iff at least one of its
program-order edges is relaxed, so a program is SC-robust exactly when
every delay edge is enforced, and a *minimal repair* is a minimum set
of insertions covering all delay edges.  This module solves that cover
problem exactly, with no enumeration anywhere:

* a full fence at gap ``p`` covers delay ``(i, j)`` iff ``i < p <= j``
  (a fence orders everything before it with everything after; combined
  with table edges, transitive chains never enforce a pair that does
  not itself span the gap),
* an **acquire upgrade** of a load at ``k`` covers delays starting at
  ``k``; a **release upgrade** of a store at ``k`` covers delays ending
  at ``k`` (half-fence semantics of
  :meth:`repro.models.base.MemoryModel.requirement`),
* actions are priced by the model table: the cost of an action is the
  number of program-order pairs it newly enforces, so a half-fence that
  suffices is preferred over a full fence that over-orders.

Two entry points share the machinery.  :func:`repair_fences` restricts
to full fences over the shared :func:`repro.analysis.sites.candidate_sites`
vocabulary and minimizes *cardinality* — its solution list is
byte-identical to ``synthesize_fences(..., target="robust")`` whenever
the analysis is exact (gated on the whole litmus library by
TAB-FENCEREPAIR and the fencesynth gate of ``benchmarks/gates.py``).  :func:`repair_upgrades`
admits acquire/release upgrades and minimizes total table cost.

The exact solver is a branch-and-bound on the uncovered element with
the fewest coverers, seeded by a greedy upper bound, returning *all*
minimum solutions in the candidate vocabulary's combination order.
Fences add no memory accesses, so repairs never create new cycles —
covering the static delay set is sound even when provenance is
over-approximated (it can only over-fence, never under-fence).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.analysis.sites import FenceSite, candidate_sites, insert_fences
from repro.analysis.static.conflict import (
    DelayEdge,
    StaticReport,
    analyze_program,
    enforced_order,
)
from repro.analysis.static.dataflow import StaticFacts, compute_static_facts
from repro.isa.instructions import Load, Rmw, Store
from repro.isa.program import Program, Thread
from repro.models.base import MemoryModel
from repro.models.registry import get_model

__all__ = [
    "FenceRepairResult",
    "RepairAction",
    "UpgradeRepairResult",
    "apply_repairs",
    "repair_fences",
    "repair_upgrades",
]

#: Safety valve for the exact search; library programs use a few dozen
#: nodes, so hitting this means a pathological generated program.
MAX_SEARCH_NODES = 200_000


# ---------------------------------------------------------------------------
# the exact all-minimum-covers solver


def _greedy_cover(
    element_count: int,
    covers: list[frozenset[int]],
    costs: list[int],
) -> list[int] | None:
    """Greedy weighted set cover: repeatedly take the candidate with the
    best newly-covered-per-cost ratio (lowest index on ties).  Returns
    None when some element is uncoverable."""
    uncovered = set(range(element_count))
    chosen: list[int] = []
    while uncovered:
        best_index: int | None = None
        best_gain = 0
        best_cost = 1
        for index, cover in enumerate(covers):
            gain = len(cover & uncovered)
            if gain == 0:
                continue
            # gain/cost > best_gain/best_cost, compared without floats
            if best_index is None or gain * best_cost > best_gain * costs[index]:
                best_index, best_gain, best_cost = index, gain, costs[index]
        if best_index is None:
            return None
        chosen.append(best_index)
        uncovered -= covers[best_index]
    return chosen


def _all_minimum_covers(
    element_count: int,
    covers: list[frozenset[int]],
    costs: list[int],
) -> tuple[int | None, list[tuple[int, ...]], int, bool]:
    """All minimum-cost covers of ``range(element_count)``.

    Returns ``(best_cost, solutions, nodes, complete)`` where solutions
    are index tuples sorted ascending, listed in lexicographic order —
    the same order ``itertools.combinations`` over the candidate list
    yields them, so the enumerative search agrees byte-for-byte.
    ``best_cost`` is None when some element has no coverer; ``complete``
    is False if the node budget truncated the search.
    """
    if element_count == 0:
        return 0, [()], 0, True
    coverers: list[list[int]] = [[] for _ in range(element_count)]
    for index, cover in enumerate(covers):
        for element in cover:
            coverers[element].append(index)
    if any(not options for options in coverers):
        return None, [], 0, True

    greedy = _greedy_cover(element_count, covers, costs)
    assert greedy is not None  # every element had a coverer
    best = sum(costs[index] for index in greedy)
    solutions: set[tuple[int, ...]] = set()
    nodes = 0
    complete = True
    full = frozenset(range(element_count))

    def search(uncovered: frozenset[int], chosen: tuple[int, ...], cost: int) -> None:
        nonlocal best, nodes, complete
        if nodes >= MAX_SEARCH_NODES:
            complete = False
            return
        nodes += 1
        if cost > best:
            return
        if not uncovered:
            if cost < best:
                best = cost
                solutions.clear()
            solutions.add(tuple(sorted(chosen)))
            return
        element = min(uncovered, key=lambda e: len(coverers[e]))
        for index in coverers[element]:
            search(uncovered - covers[index], chosen + (index,), cost + costs[index])

    search(full, (), 0)
    return best, sorted(solutions), nodes, complete


# ---------------------------------------------------------------------------
# full-fence repair (the mode cross-validated against enumeration)

_TRUNCATED = " [cycle search stopped at its cap: delay edges may be incomplete]"


@dataclass
class FenceRepairResult:
    """Statically-computed minimal full-fence repairs making a program
    SC-robust under a model.  Mirrors
    :class:`repro.analysis.fencesynth.FenceSynthesisResult` so the two
    can be compared field-by-field."""

    program_name: str
    model_name: str
    sites: tuple[FenceSite, ...]  #: the shared candidate vocabulary
    delays: tuple[DelayEdge, ...]  #: the cover universe
    solutions: list[tuple[FenceSite, ...]]  #: all minimum-size covers
    already_robust: bool
    exact: bool  #: every delay edge has exact provenance
    report: StaticReport
    nodes_explored: int = 0
    complete: bool = True
    greedy: tuple[FenceSite, ...] | None = None  #: greedy upper bound

    @property
    def fence_count(self) -> int | None:
        """Size of the minimal repairs (0 when already robust, None
        when no full-fence placement can cover every delay)."""
        if self.already_robust:
            return 0
        if not self.solutions:
            return None
        return len(self.solutions[0])

    def summary(self) -> str:
        caveat = "" if self.exact else " [over-approximated provenance]"
        if self.already_robust:
            return (
                f"{self.program_name} under {self.model_name}: SC-robust, "
                f"no fences needed{caveat}"
            )
        if self.report.truncated:
            caveat += _TRUNCATED
            if not self.delays:
                return (
                    f"{self.program_name} under {self.model_name}: no delay "
                    f"edge found, no robustness certified{caveat}"
                )
        if not self.solutions:
            return (
                f"{self.program_name} under {self.model_name}: "
                f"{len(self.delays)} delay edge(s) but NO full-fence "
                f"placement covers them all{caveat}"
            )
        rendered = " | ".join(
            "{" + ", ".join(str(site) for site in solution) + "}"
            for solution in self.solutions
        )
        return (
            f"{self.program_name} under {self.model_name}: {self.fence_count} "
            f"fence(s) repair {len(self.delays)} delay edge(s); minimal "
            f"placements: {rendered}{caveat}"
        )


def repair_fences(
    program: Program,
    model: MemoryModel | str,
    *,
    facts: StaticFacts | None = None,
    report: StaticReport | None = None,
) -> FenceRepairResult:
    """All minimum-cardinality full-fence insertions making ``program``
    SC-robust under ``model`` — computed purely statically as a set
    cover of the delay edges by the shared candidate-site vocabulary.

    When the report's provenance is exact, the solution list is
    byte-identical to the enumerative
    ``synthesize_fences(program, model, target="robust")``; when it is
    over-approximated the static answer may fence more (never less) —
    a conservative repair, still sound.
    """
    if isinstance(model, str):
        model = get_model(model)
    if report is None:
        report = analyze_program(
            program, model, facts=facts, bypass_coherence=True
        )
    sites = candidate_sites(program)
    delays = report.delays
    exact = all(delay.exact for delay in delays)

    if not delays:
        # No-delay certificates are sound unconditionally, unless the
        # cycle search was cut short: then nothing is certified.
        return FenceRepairResult(
            program_name=program.name,
            model_name=model.name,
            sites=sites,
            delays=delays,
            solutions=[],
            already_robust=not report.truncated,
            exact=True,
            report=report,
            complete=not report.truncated,
        )

    covers = [
        frozenset(
            position
            for position, delay in enumerate(delays)
            if delay.thread == site.thread and delay.covers(site.position)
        )
        for site in sites
    ]
    costs = [1] * len(sites)
    best, index_solutions, nodes, complete = _all_minimum_covers(
        len(delays), covers, costs
    )
    greedy_indices = _greedy_cover(len(delays), covers, costs)
    greedy = (
        tuple(sites[index] for index in sorted(greedy_indices))
        if greedy_indices is not None
        else None
    )
    solutions = [
        tuple(sites[index] for index in solution) for solution in index_solutions
    ]
    return FenceRepairResult(
        program_name=program.name,
        model_name=model.name,
        sites=sites,
        delays=delays,
        solutions=solutions,
        already_robust=False,
        exact=exact,
        report=report,
        nodes_explored=nodes,
        complete=complete and not report.truncated,
        greedy=greedy,
    )


# ---------------------------------------------------------------------------
# weighted repair with acquire/release upgrades


@dataclass(frozen=True, order=True)
class RepairAction:
    """One repair step: a full fence inserted at a gap, or an
    acquire/release upgrade of an existing access.  ``position`` is the
    insertion gap for fences and the instruction index for upgrades.
    ``cost`` is the number of program-order pairs the action newly
    enforces under the model — the table-priced weight minimized by
    :func:`repair_upgrades`."""

    thread: str
    position: int
    kind: str  #: "fence", "acquire", or "release"
    cost: int

    def __str__(self) -> str:
        if self.kind == "fence":
            return f"fence@{self.thread}@{self.position} (cost {self.cost})"
        return f"{self.kind}@{self.thread}[{self.position}] (cost {self.cost})"


@dataclass
class UpgradeRepairResult:
    """All minimum-total-cost repair plans mixing full fences with
    acquire/release upgrades."""

    program_name: str
    model_name: str
    actions: tuple[RepairAction, ...]  #: the candidate vocabulary
    delays: tuple[DelayEdge, ...]
    solutions: list[tuple[RepairAction, ...]]  #: all minimum-cost plans
    already_robust: bool
    exact: bool
    best_cost: int | None = None
    nodes_explored: int = 0
    complete: bool = True
    truncated: bool = False  #: the cycle search stopped at its cap

    def summary(self) -> str:
        caveat = "" if self.exact else " [over-approximated provenance]"
        if self.already_robust:
            return (
                f"{self.program_name} under {self.model_name}: SC-robust, "
                f"no repair needed{caveat}"
            )
        if self.truncated:
            caveat += _TRUNCATED
            if not self.delays:
                return (
                    f"{self.program_name} under {self.model_name}: no delay "
                    f"edge found, no robustness certified{caveat}"
                )
        if not self.solutions:
            return (
                f"{self.program_name} under {self.model_name}: "
                f"no repair covers all {len(self.delays)} delay edge(s){caveat}"
            )
        rendered = " | ".join(
            "{" + ", ".join(str(action) for action in solution) + "}"
            for solution in self.solutions
        )
        return (
            f"{self.program_name} under {self.model_name}: cheapest repair "
            f"costs {self.best_cost} newly-enforced pair(s): {rendered}{caveat}"
        )


def _action_candidates(
    program: Program, model: MemoryModel, facts: StaticFacts | None
) -> tuple[RepairAction, ...]:
    """The weighted vocabulary: every shared fence site plus every legal
    acquire/release upgrade, each priced by its newly-enforced pairs
    against the model's enforced-order matrix."""
    actions: list[RepairAction] = []
    matrices = {
        thread.name: enforced_order(thread, model, facts, bypass_coherence=True)
        for thread in program.threads
    }
    by_name: dict[str, Thread] = {thread.name: thread for thread in program.threads}
    for site in candidate_sites(program):
        matrix = matrices[site.thread]
        size = len(by_name[site.thread].code)
        cost = sum(
            1
            for i in range(site.position)
            for j in range(site.position, size)
            if not matrix[i][j]
        )
        actions.append(RepairAction(site.thread, site.position, "fence", max(cost, 1)))
    for thread in program.threads:
        matrix = matrices[thread.name]
        size = len(thread.code)
        for index, instruction in enumerate(thread.code):
            if isinstance(instruction, (Load, Rmw)) and not instruction.acquire:
                cost = sum(1 for j in range(index + 1, size) if not matrix[index][j])
                if cost:
                    actions.append(
                        RepairAction(thread.name, index, "acquire", cost)
                    )
            if isinstance(instruction, (Store, Rmw)) and not instruction.release:
                cost = sum(1 for i in range(index) if not matrix[i][index])
                if cost:
                    actions.append(
                        RepairAction(thread.name, index, "release", cost)
                    )
    return tuple(actions)


def _action_covers(action: RepairAction, delay: DelayEdge) -> bool:
    if action.thread != delay.thread:
        return False
    if action.kind == "fence":
        return delay.covers(action.position)
    if action.kind == "acquire":
        return delay.first_index == action.position
    return delay.second_index == action.position


def repair_upgrades(
    program: Program,
    model: MemoryModel | str,
    *,
    facts: StaticFacts | None = None,
    report: StaticReport | None = None,
) -> UpgradeRepairResult:
    """All minimum-total-cost repairs over the weighted vocabulary
    (full fences + acquire/release upgrades), covering every delay
    edge.  The cost of a plan is the number of program-order pairs it
    newly enforces — so a single-edge half-fence beats a whole-gap
    fence whenever it suffices."""
    if isinstance(model, str):
        model = get_model(model)
    if facts is None:
        facts = compute_static_facts(program)
    if report is None:
        report = analyze_program(
            program, model, facts=facts, bypass_coherence=True
        )
    delays = report.delays
    exact = all(delay.exact for delay in delays)
    actions = _action_candidates(program, model, facts)
    if not delays:
        return UpgradeRepairResult(
            program_name=program.name,
            model_name=model.name,
            actions=actions,
            delays=delays,
            solutions=[],
            already_robust=not report.truncated,
            exact=True,
            best_cost=None if report.truncated else 0,
            complete=not report.truncated,
            truncated=report.truncated,
        )
    covers = [
        frozenset(
            position
            for position, delay in enumerate(delays)
            if _action_covers(action, delay)
        )
        for action in actions
    ]
    costs = [action.cost for action in actions]
    best, index_solutions, nodes, complete = _all_minimum_covers(
        len(delays), covers, costs
    )
    solutions = [
        tuple(actions[index] for index in solution) for solution in index_solutions
    ]
    return UpgradeRepairResult(
        program_name=program.name,
        model_name=model.name,
        actions=actions,
        delays=delays,
        solutions=solutions,
        already_robust=False,
        exact=exact,
        best_cost=best,
        nodes_explored=nodes,
        complete=complete and not report.truncated,
        truncated=report.truncated,
    )


def apply_repairs(program: Program, actions: tuple[RepairAction, ...]) -> Program:
    """A copy of ``program`` with a repair plan applied: acquire/release
    upgrades rewrite instructions in place (original indices), then full
    fences are inserted at their gaps."""
    threads = []
    for thread in program.threads:
        code = list(thread.code)
        for action in actions:
            if action.thread != thread.name or action.kind == "fence":
                continue
            instruction = code[action.position]
            if action.kind == "acquire":
                code[action.position] = dc_replace(instruction, acquire=True)
            else:
                code[action.position] = dc_replace(instruction, release=True)
        threads.append(Thread(thread.name, tuple(code), dict(thread.labels)))
    upgraded = Program(tuple(threads), dict(program.initial_memory), program.name)
    fence_sites = tuple(
        FenceSite(action.thread, action.position)
        for action in actions
        if action.kind == "fence"
    )
    return insert_fences(upgraded, fence_sites)
