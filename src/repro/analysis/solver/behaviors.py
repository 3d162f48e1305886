"""``solve_behaviors`` — AllSAT over reads-from skeletons.

The loop: ask the CDCL solver for a model of the axiom CNF, read off
the reads-from choice, *materialize* it by replaying the choice through
the exact :class:`~repro.core.execution.Execution` machinery, add a
blocking clause, repeat until UNSAT.  Because the CNF is a sound
relaxation (see :mod:`repro.analysis.solver.encode`), every real
behavior corresponds to some satisfying reads-from choice, and because
materialization uses the real engine, everything returned compares
byte-for-byte (``loadstore_key``) with ``enumerate_behaviors``.

Materialization has two regimes:

* **straight-line skeletons with a complete assignment** — the final
  execution is a *function* of the reads-from choice (the atomicity
  closure is a least fixpoint of order-monotone rules, so it does not
  depend on resolution order).  A depth-first replay with memoized
  failed frontiers finds the unique completion — or proves there is
  none — without ever enumerating the order lattice: wide programs
  whose behavior count is tiny but whose interleaving lattice is
  exponential cost one replay per behavior here.  (The enumerator's
  stable-load reduction avoids that lattice too, so the solver serves
  as an independent oracle and the engine behind ``explain
  --forbidden``, not as a fast path.)
* **skeletons blocked on unresolved branches** (or a load assigned the
  "reads a post-branch store" pseudo-source) — the engine's own search
  is re-run restricted to the assignment (its candidates and resolve
  hooks), since new nodes appear only as branches resolve.

A :class:`CycleError` or :class:`AtomicityViolation` during replay is
*order-independent* (every edge involved is forced by a subset of the
assignment), so the whole assignment is rejected on the spot.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from repro.analysis.solver.encode import Encoding, encode_program
from repro.analysis.static.dataflow import StaticFacts, compute_static_facts
from repro.core.candidates import candidate_stores
from repro.core.enumerate import (
    EnumerationLimits,
    EnumerationResult,
    EnumerationStats,
    ExhaustionReason,
    _search,
)
from repro.core.execution import Execution
from repro.core.node import Node
from repro.errors import AtomicityViolation, CycleError, EnumerationError
from repro.isa.program import Program
from repro.models import get_model
from repro.models.base import MemoryModel


@dataclass
class SolveStats:
    """Counters for one :func:`solve_behaviors` run."""

    proposals: int = 0  #: SAT models produced by the AllSAT loop
    feasible: int = 0  #: proposals that materialized to ≥1 execution
    infeasible: int = 0  #: relaxation artifacts rejected by replay
    resolutions: int = 0  #: ``resolve_load`` calls during materialization
    behaviors: int = 0  #: distinct ``loadstore_key`` behaviors found
    conflicts: int = 0  #: CDCL conflicts
    decisions: int = 0  #: CDCL decisions
    propagations: int = 0  #: CDCL propagations


class _Infeasible(Exception):
    """The current reads-from assignment admits no real execution."""


class _Budget(Exception):
    def __init__(self, reason: ExhaustionReason) -> None:
        self.reason = reason
        super().__init__(reason.value)


class _Meter:
    """Deterministic work cap shared across all materializations."""

    def __init__(self, cap: int) -> None:
        self.spent = 0
        self.cap = cap

    def tick(self) -> None:
        self.spent += 1
        if self.spent > self.cap:
            raise _Budget(ExhaustionReason.EXECUTION_BUDGET)


# ----------------------------------------------------------------------
# materialization


def _replay(
    encoding: Encoding,
    assignment: dict[int, int | None],
    stats: SolveStats,
    meter: _Meter,
) -> Execution | None:
    """The unique completion of a complete straight-line assignment, or
    ``None``.  Deferral (a load whose target is not yet a candidate —
    e.g. its source's own priors are unresolved, or buffer visibility
    under bypass) is order-*sensitive*, so failed frontiers backtrack;
    cycles and atomicity violations are order-independent and abort."""
    failed: set[frozenset[int]] = set()

    def attempt(execution: Execution, pending: frozenset[int]) -> Execution | None:
        if not pending:
            return execution if execution.completed() else None
        if pending in failed:
            return None
        for load in execution.eligible_loads():
            nid = load.nid
            if nid not in pending:
                continue
            target = assignment[nid]
            if target not in {c.nid for c in candidate_stores(execution, load)}:
                continue  # possibly resolvable after another load; defer
            child = execution.copy()
            meter.tick()
            stats.resolutions += 1
            try:
                child.resolve_load(nid, target)
            except (CycleError, AtomicityViolation):
                raise _Infeasible from None
            found = attempt(child, pending - {nid})
            if found is not None:
                return found
        failed.add(pending)
        return None

    try:
        return attempt(encoding.base.copy(), frozenset(assignment))
    except _Infeasible:
        return None


#: The shared :class:`_Meter` is the restricted search's only cap.
_UNBOUNDED = EnumerationLimits(max_behaviors=sys.maxsize, max_executions=sys.maxsize)


def _search_restricted(
    encoding: Encoding,
    assignment: dict[int, int | None],
    stats: SolveStats,
    meter: _Meter,
) -> list[Execution]:
    """The engine's own branching search, restricted to ``assignment``:
    skeleton loads may only read their assigned source (``None`` = any
    store materialized past a branch), post-branch loads are free."""
    skeleton_size = len(encoding.base.graph)

    def assigned_candidates(execution: Execution, load: Node, _stats) -> list[Node]:
        stores = candidate_stores(execution, load)
        if load.nid not in assignment:
            return stores
        target = assignment[load.nid]
        if target is None:
            return [store for store in stores if store.nid >= skeleton_size]
        return [store for store in stores if store.nid == target]

    def metered_resolve(child: Execution, load_nid: int, store_nid: int) -> None:
        meter.tick()
        stats.resolutions += 1
        try:
            child.resolve_load(load_nid, store_nid)
        except EnumerationError:
            raise _Budget(ExhaustionReason.EXECUTION_BUDGET) from None

    base = encoding.base
    return _search(
        base.program, base.model, _UNBOUNDED, dedup=True, strict=True, token=None,
        worklist=[base.copy()], seen_states=set(), finished={}, stats=EnumerationStats(),
        candidates=assigned_candidates, resolve=metered_resolve,
    ).executions


def _materialize(
    encoding: Encoding,
    assignment: dict[int, int | None],
    stats: SolveStats,
    meter: _Meter,
) -> list[Execution]:
    if encoding.has_extension:
        return _search_restricted(encoding, assignment, stats, meter)
    execution = _replay(encoding, assignment, stats, meter)
    return [] if execution is None else [execution]


# ----------------------------------------------------------------------
# the AllSAT driver


def solve_behaviors_with_stats(
    program: Program,
    model: MemoryModel | str,
    limits: EnumerationLimits | None = None,
    *,
    facts: StaticFacts | None = None,
) -> tuple[EnumerationResult, SolveStats]:
    """Like :func:`solve_behaviors`, also returning solver counters."""
    start = time.monotonic()
    if isinstance(model, str):
        model = get_model(model)
    if limits is None:
        limits = EnumerationLimits()
    if facts is None:
        facts = compute_static_facts(program)
    encoding = encode_program(
        program,
        model,
        max_nodes_per_thread=limits.max_nodes_per_thread,
        facts=facts,
    )
    solver = encoding.solver
    stats = SolveStats()
    meter = _Meter(limits.max_executions)
    behaviors: dict[str, Execution] = {}
    complete = True
    reason: ExhaustionReason | None = None
    try:
        while True:
            if len(behaviors) >= limits.max_behaviors:
                raise _Budget(ExhaustionReason.BEHAVIOR_BUDGET)
            if stats.proposals >= limits.max_executions:
                raise _Budget(ExhaustionReason.EXECUTION_BUDGET)
            if (
                limits.deadline_seconds is not None
                and time.monotonic() - start >= limits.deadline_seconds
            ):
                raise _Budget(ExhaustionReason.DEADLINE)
            if not solver.solve():
                break
            stats.proposals += 1
            assignment = encoding.rf_assignment()
            materialized = _materialize(encoding, assignment, stats, meter)
            if materialized:
                stats.feasible += 1
            else:
                stats.infeasible += 1
            for execution in materialized:
                behaviors.setdefault(repr(execution.loadstore_key()), execution)
            encoding.block(assignment)
    except _Budget as budget:
        complete = False
        reason = budget.reason
    stats.behaviors = len(behaviors)
    stats.conflicts = solver.conflicts
    stats.decisions = solver.decisions
    stats.propagations = solver.propagations
    executions = [behaviors[key] for key in sorted(behaviors)]
    enumeration_stats = EnumerationStats(
        explored=stats.proposals,
        resolutions=stats.resolutions,
        completed=stats.feasible,
        stuck=stats.infeasible,
        branched=0,
    )
    result = EnumerationResult(
        program=program,
        model=model,
        executions=executions,
        stats=enumeration_stats,
        complete=complete,
        reason=reason,
    )
    return result, stats


def solve_behaviors(
    program: Program,
    model: MemoryModel | str,
    limits: EnumerationLimits | None = None,
    *,
    facts: StaticFacts | None = None,
) -> EnumerationResult:
    """All behaviors of ``program`` under ``model`` by SAT + replay.

    The returned :class:`EnumerationResult` has the same shape as
    :func:`~repro.core.enumerate.enumerate_behaviors` — in particular
    ``sorted(repr(e.loadstore_key()) for e in result.executions)`` is
    byte-identical between the two on the full litmus library (the
    TAB-SOLVER experiment gates exactly this).
    """
    result, _ = solve_behaviors_with_stats(program, model, limits, facts=facts)
    return result


__all__ = [
    "SolveStats",
    "solve_behaviors",
    "solve_behaviors_with_stats",
]
