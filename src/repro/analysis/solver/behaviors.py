"""``solve_behaviors`` — AllSAT over reads-from skeletons.

The loop is one depth-first walk over the loads' reads-from choices, in
``Encoding.loads`` order (the non-blocking AllSAT of Grumberg, Schuster
& Yadgar, FMCAD 2004, and Toda & Soh, ACM JEA 2016).  Each step asks the
CDCL solver for a model of the axiom CNF under a *prefix*: the rf/ext
literals of the loads fixed so far.  UNSAT prunes the prefix's subtree.
A model ``a`` is *materialized* by replaying its reads-from choice
through the exact :class:`~repro.core.execution.Execution` machinery,
and the walk then visits ``a[:d]`` extended by every other choice of
load ``d``, deepest ``d`` first.  Those subtrees and ``a`` partition the
prefix's subtree, so every projected model is found exactly once and no
blocking clause is ever added; consecutive models share their leading
choices, so the solver keeps the trail of the assumptions two calls
share (see :meth:`~repro.analysis.solver.sat.SatSolver.solve`) and the
replay keeps the frontiers two models share.  Because the CNF is a sound
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
  exponential cost one replay per behavior here.  One stack of
  ``(load, store, Execution)`` frontiers is kept across models, as
  :func:`~repro.core.serialization.replay_logs` keeps one across logs:
  a model resumes from the deepest frontier whose choices it shares
  with the model before it.  (The enumerator's stable-load reduction
  avoids the lattice too, so the solver serves as an independent oracle
  and the engine behind ``repro explain``, not as a fast path.)
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
the call and, like the :class:`~repro.core.enumerate.CancellationToken`
``token``, is checked at every step of work and at every conflict inside
a SAT call, so one hard call stops too; ``max_memory_mb`` is charged by
the restricted search.  A branch past ``max_nodes_per_thread`` is
dropped and counted in ``truncated``, as the enumerator does.  A stop is
the strict :class:`~repro.errors.EnumerationError` with ``reason`` set:
:func:`solve_behaviors` returns a partial result, ``explain_forbidden``
raises it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.analysis.solver.encode import Encoding, encode_program
from repro.analysis.static.dataflow import StaticFacts
from repro.core.candidates import candidate_stores
from repro.core.enumerate import (
    CancellationToken,
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

#: The replay stack: entry 0 is ``(None, None, skeleton)``, and each
#: later entry resolves its load to its store in the entry before it.
_Frontiers = list[tuple[int | None, int | None, Execution]]


@dataclass
class SolveStats:
    """Counters for one :func:`solve_behaviors` run."""

    proposals: int = 0  #: SAT models produced by the AllSAT walk
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
    encoding: Encoding,
    limits: EnumerationLimits,
    work: EnumerationStats,
    start: float,
    token: CancellationToken | None,
) -> None:
    """Count one step of ``work`` (a SAT call or a replay resolution),
    first raising the enumerator's strict :class:`EnumerationError` if a
    budget is spent.  Only the restricted :func:`_search` charges memory."""
    reason = _budget_exhausted(limits, work, start, _MemoryAccountant(None), token)
    if reason is not None:
        raise _strict_error(reason, encoding.program, encoding.model, limits)
    work.explored += 1


def _interrupt(
    encoding: Encoding,
    limits: EnumerationLimits,
    start: float,
    token: CancellationToken | None,
) -> Callable[[], None] | None:
    """The check :meth:`SatSolver.solve` makes at every conflict: the
    deadline and ``token`` (the counting budgets only move between SAT
    calls), raising as :func:`_step` does.  ``None`` when neither is set."""
    if limits.deadline_seconds is None and token is None:
        return None
    program, model = encoding.program, encoding.model
    idle = EnumerationStats()  # no work is counted inside a SAT call

    def interrupt() -> None:
        reason = _budget_exhausted(limits, idle, start, _MemoryAccountant(None), token)
        if reason is not None:
            raise _strict_error(reason, program, model, limits)

    return interrupt


# ----------------------------------------------------------------------
# materialization


def _replay_stack(encoding: Encoding) -> _Frontiers:
    """A fresh replay stack for :func:`_materialize`: the skeleton alone."""
    return [(None, None, encoding.base.copy())]


def _replay(
    encoding: Encoding,
    assignment: dict[int, int | None],
    limits: EnumerationLimits,
    work: EnumerationStats,
    start: float,
    token: CancellationToken | None,
    frontiers: _Frontiers,
) -> Execution | None:
    """The unique completion of a complete straight-line assignment, or
    ``None``.  Deferral (a load whose target is not yet a candidate —
    e.g. its source's own priors are unresolved, or buffer visibility
    under bypass) is order-*sensitive*, so failed frontiers backtrack;
    cycles and atomicity violations are order-independent and abort.

    The search starts from the deepest entry of ``frontiers`` whose
    choices all agree with ``assignment``, and leaves the path to the
    completion on the stack for the next model.  A frontier is a
    function of the set of choices it has resolved, so the failed memo
    holds for every path; only when nothing completes from the shared
    frontier does the search start again from the skeleton, where a
    different resolution order may get past a deferral."""
    shared = 1
    while shared < len(frontiers):
        load, store, _ = frontiers[shared]
        if assignment[load] != store:
            break
        shared += 1
    del frontiers[shared:]
    resolved = {load for load, _, _ in frontiers[1:]}
    failed: set[frozenset[int]] = set()
    try:
        if _attempt(
            encoding, assignment, limits, work, start, token, failed, frontiers,
            frozenset(assignment).difference(resolved),
        ):
            return frontiers[-1][2]
        if shared > 1:
            del frontiers[1:]
            if _attempt(
                encoding, assignment, limits, work, start, token, failed, frontiers,
                frozenset(assignment),
            ):
                return frontiers[-1][2]
    except _Infeasible:
        pass
    return None


def _attempt(
    encoding: Encoding,
    assignment: dict[int, int | None],
    limits: EnumerationLimits,
    work: EnumerationStats,
    start: float,
    token: CancellationToken | None,
    failed: set[frozenset[int]],
    frontiers: _Frontiers,
    pending: frozenset[int],
) -> bool:
    """One frontier of :func:`_replay`, the top of ``frontiers``: resolve
    a ``pending`` load now, then the rest.  True when that completes the
    execution, with the path pushed on ``frontiers``.  ``failed``
    memoizes the pending sets that led nowhere.  (A module-level
    function, not a closure: a self-recursive closure would keep the
    whole ``encoding`` alive until the cyclic collector runs.)"""
    execution = frontiers[-1][2]
    if not pending:
        return execution.completed()
    if pending in failed:
        return False
    for load in execution.eligible_loads():
        nid = load.nid
        if nid not in pending:
            continue
        target = assignment[nid]
        if target not in {c.nid for c in candidate_stores(execution, load)}:
            continue  # possibly resolvable after another load; defer
        _step(encoding, limits, work, start, token)
        work.resolutions += 1
        child = execution.copy()
        try:
            child.resolve_load(nid, target)
        except (CycleError, AtomicityViolation):
            raise _Infeasible from None
        frontiers.append((nid, target, child))
        if _attempt(
            encoding, assignment, limits, work, start, token, failed, frontiers,
            pending - {nid},
        ):
            return True
        frontiers.pop()
    failed.add(pending)
    return False


def _search_restricted(
    encoding: Encoding,
    assignment: dict[int, int | None],
    limits: EnumerationLimits,
    work: EnumerationStats,
    start: float,
    token: CancellationToken | None,
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
        base.program, base.model, limits, dedup=True, strict=True, token=token,
        worklist=[base.copy()], seen_states=set(), finished={}, stats=work,
        candidates=assigned_candidates, start=start,
    ).executions


def _materialize(
    encoding: Encoding,
    assignment: dict[int, int | None],
    limits: EnumerationLimits,
    work: EnumerationStats,
    start: float,
    token: CancellationToken | None,
    frontiers: _Frontiers,
) -> list[Execution]:
    """Every execution of ``assignment``; ``frontiers`` is the replay
    stack (:func:`_replay_stack`) the caller keeps across models."""
    if encoding.has_extension:
        return _search_restricted(encoding, assignment, limits, work, start, token)
    execution = _replay(encoding, assignment, limits, work, start, token, frontiers)
    return [] if execution is None else [execution]


# ----------------------------------------------------------------------
# the AllSAT driver


def solve_behaviors_with_stats(
    program: Program,
    model: MemoryModel | str,
    limits: EnumerationLimits | None = None,
    *,
    facts: StaticFacts | None = None,
    token: CancellationToken | None = None,
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
    interrupt = _interrupt(encoding, limits, start, token)
    frontiers = _replay_stack(encoding)
    options = [encoding.rf_options(load.nid) for load in encoding.loads]
    # The walk's stack of prefixes still to visit, deepest on top.
    walk: list[tuple[int, ...]] = [()]
    try:
        while walk:
            prefix = walk.pop()
            if prefix and solver.fixed(prefix[-1]) is False:
                continue  # a choice the root has ruled out: UNSAT for free
            _step(encoding, limits, work, start, token)
            if not solver.solve(prefix, interrupt):
                continue
            stats.proposals += 1
            assignment = encoding.rf_assignment()
            materialized = _materialize(
                encoding, assignment, limits, work, start, token, frontiers
            )
            if materialized:
                stats.feasible += 1
            else:
                stats.infeasible += 1
            for execution in materialized:
                key = repr(execution.loadstore_key())
                if key not in behaviors and len(behaviors) >= limits.max_executions:
                    raise _strict_error(ExhaustionReason.EXECUTION_BUDGET, program, model, limits)
                behaviors.setdefault(key, execution)
            chosen = tuple(encoding.rf_literals(assignment))
            for depth in range(len(prefix), len(chosen)):
                for literal in reversed(options[depth]):
                    if literal != chosen[depth]:
                        walk.append(chosen[:depth] + (literal,))
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
    token: CancellationToken | None = None,
) -> EnumerationResult:
    """All behaviors of ``program`` under ``model`` by SAT + replay.

    The returned :class:`EnumerationResult` has the same shape as
    :func:`~repro.core.enumerate.enumerate_behaviors` — in particular
    ``sorted(repr(e.loadstore_key()) for e in result.executions)`` is
    byte-identical between the two on the full litmus library (the
    TAB-SOLVER experiment gates exactly this).  ``token`` cancels the
    call cooperatively, as it does an enumeration.
    """
    result, _ = solve_behaviors_with_stats(program, model, limits, facts=facts, token=token)
    return result


__all__ = [
    "SolveStats",
    "solve_behaviors",
    "solve_behaviors_with_stats",
]
