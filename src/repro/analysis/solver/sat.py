"""A small CDCL SAT solver (pure stdlib).

The classic architecture in ~400 lines: two-watched-literal unit
propagation, activity-driven (VSIDS-style) decisions with phase saving,
first-UIP conflict analysis with clause learning, Luby-sequence
restarts, and incremental solving under *assumptions* with
failed-assumption cores — the interface
:mod:`repro.analysis.solver.explain` uses to extract minimal
violated-axiom sets.

Literals follow the DIMACS convention at the API boundary: variable
``v`` (a positive int from :meth:`SatSolver.new_var`) appears as ``v``
or ``-v``; ``0`` (the DIMACS clause terminator) and unknown variables
are rejected with :class:`ValueError`.  Internally a literal is
``2*var + sign`` with ``sign = 1`` for negation, so negation is
``lit ^ 1``.

Decisions come from MiniSat's *order heap*, kept lazily: a binary heap
of ``(-activity, var)`` entries with an entry pushed whenever a
variable's activity grows while it is unassigned and whenever
backtracking unassigns it.  An entry is stale once its variable is
assigned or its stored activity is no longer current, and stale entries
are skipped on pop (the heap is rebuilt from the unassigned variables
after the activity rescale, and whenever stale entries outnumber the
variables).  The top valid entry is therefore exactly what a linear
scan would pick — the unassigned variable of highest activity, lowest
index on ties — so decisions, conflicts and learnt clauses do not
depend on the heap.

After a SAT answer the trail is kept: the next :meth:`SatSolver.solve`
backtracks only to the longest prefix its assumptions share with the
last SAT call's (assumption ``i`` holds decision level ``i + 1``), so a
caller walking models depth first does not re-propagate what two calls
share.  :meth:`~SatSolver.add_clause` returns to the root first, and
:meth:`~SatSolver.fixed` reads root values only.

There is no clause-database reduction or preprocessing — the encodings
in this package stay small (thousands of variables, tens of thousands
of clauses), and learnt clauses are simply kept.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Sequence

_UNDEF = -1


def _luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence
    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class SatSolver:
    """CDCL solver with incremental clause addition and assumptions."""

    def __init__(self) -> None:
        self._clauses: list[list[int]] = []  # internal-literal arrays
        self._watches: list[list[int]] = []  # internal literal -> clause ids
        self._assign: list[int] = []  # var -> _UNDEF | 0 (false) | 1 (true)
        self._phase: list[int] = []  # var -> last assigned polarity
        self._level: list[int] = []  # var -> decision level
        self._reason: list[int] = []  # var -> clause id or _UNDEF
        self._activity: list[float] = []
        self._order: list[tuple[float, int]] = []  # lazy (-activity, var) heap
        # external literal -> internal literal; also the literal check,
        # and every clause shares its int objects
        self._internal_of: dict[int, int] = {}
        self._trail: list[int] = []  # assigned internal literals, in order
        self._trail_lim: list[int] = []  # trail length at each decision
        self._queue_head = 0
        self._var_inc = 1.0
        self._ok = True
        self._model: list[int] = []
        #: the last SAT call's internal assumptions, whose levels the
        #: trail may still hold
        self._held: list[int] = []
        self._core: list[int] = []
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

    # -- variables and clauses -----------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) index."""
        self._assign.append(_UNDEF)
        self._phase.append(0)
        self._level.append(0)
        self._reason.append(_UNDEF)
        self._activity.append(0.0)
        self._watches.append([])
        self._watches.append([])
        var = len(self._assign) - 1
        heappush(self._order, (-0.0, var))
        self._internal_of[var + 1] = 2 * var
        self._internal_of[-var - 1] = 2 * var + 1
        return var + 1  # 1-based externally

    def _internal(self, lit: int) -> int:
        """The internal literal of external ``lit``; ``ValueError`` for
        ``0`` and for variables :meth:`new_var` never returned."""
        try:
            return self._internal_of[lit]
        except KeyError:
            if lit == 0:
                raise ValueError("literal 0 is the DIMACS terminator, not a literal") from None
            raise ValueError(f"unknown variable {abs(lit)}") from None

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause (external literals).  Returns False when the
        formula is already unsatisfiable at the root level."""
        if not self._ok:
            return False
        self._backtrack(0)
        # The literal conversion and root values are read inline: this
        # loop runs once per literal of every encoded clause.  Every
        # literal is checked, even after the clause is known to be
        # satisfied.
        assign = self._assign
        internal_of = self._internal_of
        clause: list[int] = []  # short: membership tests scan it
        satisfied = False
        for lit in lits:
            ilit = internal_of.get(lit)
            if ilit is None:
                ilit = self._internal(lit)  # raises the ValueError
            if satisfied:
                continue
            value = assign[ilit >> 1]
            if value != _UNDEF:
                # Root-satisfied: the clause is dropped; root-falsified:
                # the literal is.
                satisfied = value ^ (ilit & 1) == 1
            elif ilit ^ 1 in clause:
                satisfied = True  # tautology
            elif ilit not in clause:
                clause.append(ilit)
        if satisfied:
            return True
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            self._enqueue(clause[0], _UNDEF)
            self._ok = self._propagate() == _UNDEF
            return self._ok
        cid = len(self._clauses)
        self._clauses.append(clause)
        self._watches[clause[0] ^ 1].append(cid)
        self._watches[clause[1] ^ 1].append(cid)
        return True

    # -- assignment and propagation ------------------------------------

    def _enqueue(self, ilit: int, reason: int) -> None:
        var = ilit >> 1
        self._assign[var] = 1 - (ilit & 1)
        self._phase[var] = 1 - (ilit & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(ilit)

    def _propagate(self) -> int:
        """Exhaust unit propagation; returns a conflicting clause id or
        ``_UNDEF``.

        A literal's value is read inline as ``assign[var] ^ sign``: 1 is
        true, 0 false, and the negative results of ``_UNDEF ^ sign``
        unassigned."""
        trail = self._trail
        clauses = self._clauses
        watches = self._watches
        assign = self._assign
        phase = self._phase
        level_of = self._level
        reason_of = self._reason
        level = len(self._trail_lim)
        head = self._queue_head
        while head < len(trail):
            ilit = trail[head]
            head += 1
            self.propagations += 1
            # ``ilit`` is now true, so ``ilit ^ 1`` is the falsified
            # literal; clauses watching it are filed under ``ilit``
            # (watches are indexed by the watched literal's negation).
            falsified = ilit ^ 1
            watching = watches[ilit]
            kept: list[int] = []
            for position, cid in enumerate(watching):
                clause = clauses[cid]
                # Normalize: the falsified literal sits at clause[1].
                first = clause[0]
                if first == falsified:
                    first = clause[0] = clause[1]
                    clause[1] = falsified
                first_value = assign[first >> 1] ^ (first & 1)
                if first_value == 1:
                    kept.append(cid)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if assign[other >> 1] ^ (other & 1):
                        clause[1], clause[k] = other, clause[1]
                        watches[other ^ 1].append(cid)
                        break
                else:
                    kept.append(cid)
                    if first_value == 0:
                        kept.extend(watching[position + 1:])
                        watches[ilit] = kept
                        self._queue_head = len(trail)
                        return cid
                    # self._enqueue(first, cid), inline
                    var = first >> 1
                    assign[var] = phase[var] = 1 - (first & 1)
                    level_of[var] = level
                    reason_of[var] = cid
                    trail.append(first)
            watches[ilit] = kept
        self._queue_head = head
        return _UNDEF

    # -- conflict analysis ---------------------------------------------

    def _bump(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            inverse = 1e-100
            for index in range(len(activity)):
                activity[index] *= inverse
            self._var_inc *= inverse
            self._rebuild_order()
        elif self._assign[var] == _UNDEF:
            heappush(self._order, (-activity[var], var))

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP learning: returns (learnt clause, backtrack level);
        the asserting literal is first in the learnt clause."""
        learnt: list[int] = [0]  # slot for the asserting literal
        seen = [False] * len(self._assign)
        counter = 0
        ilit = _UNDEF
        index = len(self._trail)
        current_level = len(self._trail_lim)
        reason = conflict
        while True:
            clause = self._clauses[reason]
            # The whole conflict clause contributes; for reason clauses,
            # clause[0] is the literal being resolved on and is skipped.
            for other in (clause if ilit == _UNDEF else clause[1:]):
                var = other >> 1
                if seen[var] or self._level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learnt.append(other)
            while True:
                index -= 1
                ilit = self._trail[index]
                if seen[ilit >> 1]:
                    break
            counter -= 1
            seen[ilit >> 1] = False
            if counter == 0:
                break
            reason = self._reason[ilit >> 1]
        learnt[0] = ilit ^ 1
        if len(learnt) == 1:
            return learnt, 0
        # Backtrack to the second-highest decision level in the clause.
        max_pos = max(range(1, len(learnt)), key=lambda k: self._level[learnt[k] >> 1])
        learnt[1], learnt[max_pos] = learnt[max_pos], learnt[1]
        return learnt, self._level[learnt[1] >> 1]

    def _backtrack(self, target_level: int) -> None:
        if len(self._trail_lim) <= target_level:
            return
        bound = self._trail_lim[target_level]
        assign = self._assign
        reason = self._reason
        activity = self._activity
        order = self._order
        for ilit in reversed(self._trail[bound:]):
            var = ilit >> 1
            assign[var] = _UNDEF
            reason[var] = _UNDEF
            heappush(order, (-activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[target_level:]
        self._queue_head = len(self._trail)
        if len(order) > 2 * len(assign):
            self._rebuild_order()  # mostly stale entries: compact

    def _record_learnt(self, learnt: list[int]) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], _UNDEF)
            return
        cid = len(self._clauses)
        self._clauses.append(learnt)
        self._watches[learnt[0] ^ 1].append(cid)
        self._watches[learnt[1] ^ 1].append(cid)
        self._enqueue(learnt[0], cid)

    # -- decisions ------------------------------------------------------

    def _rebuild_order(self) -> None:
        """The order heap from scratch: one current entry per unassigned
        variable."""
        activity = self._activity
        self._order = [
            (-activity[var], var)
            for var, assigned in enumerate(self._assign)
            if assigned == _UNDEF
        ]
        heapify(self._order)

    def _decide(self) -> int:
        """The unassigned variable of highest activity (lowest index on
        ties), in its saved phase; ``_UNDEF`` when all are assigned."""
        order = self._order
        assign = self._assign
        activity = self._activity
        while order:
            negated, var = heappop(order)
            if assign[var] == _UNDEF and -negated == activity[var]:
                return 2 * var + (1 - self._phase[var])
        return _UNDEF

    # -- assumptions and cores -----------------------------------------

    def _analyze_final(self, failed: int) -> None:
        """The failed assumption ``failed`` (internal) is falsified;
        collect the subset of assumptions implying its negation."""
        core = {failed}
        seen = [False] * len(self._assign)
        seen[failed >> 1] = True
        for ilit in reversed(self._trail):
            var = ilit >> 1
            if not seen[var]:
                continue
            reason = self._reason[var]
            if reason == _UNDEF:
                if self._level[var] > 0:
                    core.add(ilit)
            else:
                for other in self._clauses[reason][1:]:
                    if self._level[other >> 1] > 0:
                        seen[other >> 1] = True
            seen[var] = False
        self._core = sorted(
            (-(ilit >> 1) - 1 if ilit & 1 else (ilit >> 1) + 1) for ilit in core
        )

    # -- main loop ------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        interrupt: Callable[[], object] | None = None,
    ) -> bool:
        """Decide satisfiability under ``assumptions``.  On SAT the model
        is readable via :meth:`value`; on UNSAT caused by assumptions,
        :meth:`core` holds a (not necessarily minimal) failed subset.

        ``interrupt`` is called once per conflict; whatever it raises
        ends the call, with the solver back at the root and still
        usable (learnt clauses are kept)."""
        self._core = []
        if not self._ok:
            return False
        assumed = [self._internal(lit) for lit in assumptions]
        shared = 0
        for held, lit in zip(self._held, assumed):
            if held != lit:
                break
            shared += 1
        self._held = []
        self._backtrack(shared)
        restart_index = 0
        try:
            while True:
                restart_index += 1
                result = self._search(assumed, 100 * _luby(restart_index), interrupt)
                if result:
                    self._held = assumed
                    return True
                self._backtrack(0)
                if result is not None:
                    return False
                self.restarts += 1
        except BaseException:
            self._backtrack(0)
            raise

    def _search(
        self, assumed: list[int], budget: int, interrupt: Callable[[], object] | None
    ) -> bool | None:
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict != _UNDEF:
                self.conflicts += 1
                conflicts_here += 1
                if not self._trail_lim:
                    self._ok = False
                    return False
                learnt, back_level = self._analyze(conflict)
                # Backjumping may undo assumption decisions; the decision
                # loop below re-applies them in order.
                self._backtrack(back_level)
                self._record_learnt(learnt)
                self._var_inc /= 0.95
                if interrupt is not None:
                    interrupt()
                if conflicts_here >= budget:
                    return None
                continue
            if len(self._trail_lim) < len(assumed):
                next_assumption = assumed[len(self._trail_lim)]
                value = self._assign[next_assumption >> 1]
                if value != _UNDEF:
                    value ^= next_assumption & 1
                if value == 0:
                    self._analyze_final(next_assumption)
                    return False
                self._trail_lim.append(len(self._trail))
                if value == _UNDEF:
                    self._enqueue(next_assumption, _UNDEF)
                continue
            decision = self._decide()
            if decision == _UNDEF:
                self._model = list(self._assign)
                return True
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, _UNDEF)

    def fixed(self, lit: int) -> bool | None:
        """The root-level value of an external literal, ``None`` while
        unassigned at the root.  Root assignments are permanent, so a
        clause holding a root-true literal is a no-op for
        :meth:`add_clause` — callers may skip building it."""
        var = self._internal(lit) >> 1
        value = self._assign[var]
        if value == _UNDEF or self._level[var] > 0:
            return None
        return bool(value ^ (lit < 0))

    # -- results ---------------------------------------------------------

    def value(self, lit: int) -> bool:
        """Truth value of an external literal in the last SAT model."""
        var = self._internal(lit) >> 1
        assigned = self._model[var]
        if assigned == _UNDEF:
            assigned = 0  # unconstrained variables default to false
        return bool(assigned) if lit > 0 else not bool(assigned)

    def core(self) -> list[int]:
        """External literals: the failed assumptions of the last UNSAT
        :meth:`solve` call (empty when UNSAT without assumptions)."""
        return list(self._core)


__all__ = ["SatSolver"]
