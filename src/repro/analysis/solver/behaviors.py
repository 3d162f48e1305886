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
  as an independent oracle and the engine behind ``repro explain``,
  not as a fast path.)
* **skeletons blocked on unresolved branches** (or a load assigned the
  "reads a post-branch store" pseudo-source) — the engine's own search
  is re-run restricted to the assignment (its candidates hook), since
  new nodes appear only as branches resolve.

A :class:`CycleError` or :class:`AtomicityViolation` during replay is
*order-independent* (every edge involved is forced by a subset of the
assignment), so the whole assignment is rejected on the spot.

Static facts are computed on first need, by the encoder (see
:attr:`~repro.analysis.solver.encode.Encoding.facts`): a program whose
skeleton knows every address never computes them.  ``facts=`` supplies
them instead (the ``solver-vs-axiomatic`` oracle shares one object
across models).

Budgets.  One :class:`~repro.core.enumerate.EnumerationLimits` bounds
the whole call through the enumerator's own check and error texts.
``max_behaviors`` bounds the work, counted together: SAT calls, replay
resolutions and restricted-search pops.  ``max_executions`` bounds the
distinct behaviors kept.  ``deadline_seconds`` runs from the start of
the call and is checked at every step of work; ``max_memory_mb`` is
charged by the restricted search.  A branch past
``max_nodes_per_thread`` is dropped and counted in ``truncated``, as the
enumerator does.  A stop is the strict
:class:`~repro.errors.EnumerationError` with ``reason`` set:
:func:`solve_behaviors` returns a partial result, ``explain_forbidden``
raises it.  A single CDCL call is never interrupted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.analysis.solver.encode import Encoding, encode_program
from repro.analysis.static.dataflow import StaticFacts
from repro.core.candidates import candidate_stores
from repro.core.enumerate import (
    EnumerationLimits,
    EnumerationResult,
    EnumerationStats,
    ExhaustionReason,
    _budget_exhausted,
    _MemoryAccountant,
    _search,
    _strict_error,
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


def _step(
    encoding: Encoding, limits: EnumerationLimits, work: EnumerationStats, start: float
) -> None:
    """Count one step of ``work`` (a SAT call or a replay resolution),
    first raising the enumerator's strict :class:`EnumerationError` if a
    budget is spent.  Only the restricted :func:`_search` charges memory."""
    reason = _budget_exhausted(limits, work, start, _MemoryAccountant(None), None)
    if reason is not None:
        raise _strict_error(reason, encoding.program, encoding.model, limits)
    work.explored += 1


# ----------------------------------------------------------------------
# materialization


def _replay(
    encoding: Encoding,
    assignment: dict[int, int | None],
    limits: EnumerationLimits,
    work: EnumerationStats,
    start: float,
) -> Execution | None:
    """The unique completion of a complete straight-line assignment, or
    ``None``.  Deferral (a load whose target is not yet a candidate —
    e.g. its source's own priors are unresolved, or buffer visibility
    under bypass) is order-*sensitive*, so failed frontiers backtrack;
    cycles and atomicity violations are order-independent and abort."""
    try:
        return _attempt(
            encoding, assignment, limits, work, start, set(),
            encoding.base.copy(), frozenset(assignment),
        )
    except _Infeasible:
        return None


def _attempt(
    encoding: Encoding,
    assignment: dict[int, int | None],
    limits: EnumerationLimits,
    work: EnumerationStats,
    start: float,
    failed: set[frozenset[int]],
    execution: Execution,
    pending: frozenset[int],
) -> Execution | None:
    """One frontier of :func:`_replay`: resolve a ``pending`` load now, then
    the rest.  ``failed`` memoizes the frontiers that led nowhere.  (A
    module-level function, not a closure: a self-recursive closure would
    keep the whole ``encoding`` alive until the cyclic collector runs.)"""
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
        _step(encoding, limits, work, start)
        work.resolutions += 1
        child = execution.copy()
        try:
            child.resolve_load(nid, target)
        except (CycleError, AtomicityViolation):
            raise _Infeasible from None
        found = _attempt(
            encoding, assignment, limits, work, start, failed, child, pending - {nid}
        )
        if found is not None:
            return found
    failed.add(pending)
    return None


def _search_restricted(
    encoding: Encoding,
    assignment: dict[int, int | None],
    limits: EnumerationLimits,
    work: EnumerationStats,
    start: float,
) -> list[Execution]:
    """The engine's own branching search, restricted to ``assignment``:
    skeleton loads may only read their assigned source (``None`` = any
    store materialized past a branch), post-branch loads are free.  Every
    pop is one step of ``work``."""
    skeleton_size = len(encoding.base.graph)

    def assigned_candidates(execution: Execution, load: Node, _stats) -> list[Node]:
        stores = candidate_stores(execution, load)
        if load.nid not in assignment:
            return stores
        target = assignment[load.nid]
        if target is None:
            return [store for store in stores if store.nid >= skeleton_size]
        return [store for store in stores if store.nid == target]

    base = encoding.base
    return _search(
        base.program, base.model, limits, dedup=True, strict=True, token=None,
        worklist=[base.copy()], seen_states=set(), finished={}, stats=work,
        candidates=assigned_candidates, start=start,
    ).executions


def _materialize(
    encoding: Encoding,
    assignment: dict[int, int | None],
    limits: EnumerationLimits,
    work: EnumerationStats,
    start: float,
) -> list[Execution]:
    if encoding.has_extension:
        return _search_restricted(encoding, assignment, limits, work, start)
    execution = _replay(encoding, assignment, limits, work, start)
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
    encoding = encode_program(
        program,
        model,
        max_nodes_per_thread=limits.max_nodes_per_thread,
        facts=facts,
    )
    solver = encoding.solver
    stats = SolveStats()
    work = EnumerationStats()
    behaviors: dict[str, Execution] = {}
    reason: ExhaustionReason | None = None
    try:
        while True:
            _step(encoding, limits, work, start)
            if not solver.solve():
                break
            stats.proposals += 1
            assignment = encoding.rf_assignment()
            materialized = _materialize(encoding, assignment, limits, work, start)
            if materialized:
                stats.feasible += 1
            else:
                stats.infeasible += 1
            for execution in materialized:
                key = repr(execution.loadstore_key())
                if key not in behaviors and len(behaviors) >= limits.max_executions:
                    raise _strict_error(ExhaustionReason.EXECUTION_BUDGET, program, model, limits)
                behaviors.setdefault(key, execution)
            encoding.block(assignment)
    except EnumerationError as stop:
        if not isinstance(stop.reason, ExhaustionReason):
            raise
        reason = stop.reason
    stats.resolutions = work.resolutions
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
        truncated=work.truncated,
    )
    result = EnumerationResult(
        program=program,
        model=model,
        executions=executions,
        stats=enumeration_stats,
        complete=reason is None,
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
