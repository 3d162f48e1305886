"""Enumerating program behaviors (paper Section 4).

The driver maintains a set of current behaviors ``B``; at each step one
behavior is refined: graph generation and dataflow execution run to a
fixpoint (inside :meth:`Execution.stabilize`), then **Load Resolution**
branches the behavior — for every eligible unresolved load ``L`` and
every ``S ∈ candidates(L)``, a copy is created with ``source(L) = S``.

"Load Resolution is the only place where our enumeration procedure may
duplicate effort" — duplicates are discarded by comparing canonical
behavior keys (and completed executions by their Load–Store graphs).
The enumerator avoids most of that duplication up front: when some
eligible load is *stable* (no store can become its candidate later), it
branches on that load alone (:func:`_stable_eligible`).  The well-sync
check, value speculation and the solver's replay keep the paper's full
eligibility.

Speculative executions whose deferred alias edges or atomicity closure
become inconsistent are discarded: in an enumerative setting, a rolled
back and re-tried load is exactly some other branch of the search.

Resilience
----------

The behavior set grows combinatorially with threads and loads, so the
search is guarded by :class:`EnumerationLimits` budgets: behavior and
execution counts, a wall-clock deadline, an approximate memory budget
over the worklist and dedup set, and a cooperative
:class:`CancellationToken`.  By default an exhausted budget **degrades
gracefully**: the partial result is returned with ``complete=False``, a
populated :class:`ExhaustionReason`, and an
:class:`EnumerationCheckpoint` from which the search can be resumed
under a bigger budget (:func:`resume_enumeration`).  Passing
``strict=True`` restores the historical raise-on-limit behavior.
"""

from __future__ import annotations

import enum
import pickle
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import (
    AtomicityViolation,
    CycleError,
    EnumerationError,
    StuckBehaviorWarning,
)
from repro.core.candidates import candidate_stores
from repro.core.execution import Execution
from repro.isa.program import Program
from repro.models.base import MemoryModel
from repro.storage import atomic_write, seal, unseal

if TYPE_CHECKING:
    from repro.cache.store import BehaviorCache


class ExhaustionReason(enum.Enum):
    """Why an enumeration stopped before exhausting the behavior set."""

    BEHAVIOR_BUDGET = "behavior-budget"  #: ``max_behaviors`` explored
    EXECUTION_BUDGET = "execution-budget"  #: ``max_executions`` kept
    DEADLINE = "deadline"  #: ``deadline_seconds`` of wall clock elapsed
    MEMORY = "memory"  #: ``max_memory_mb`` accounting budget exceeded
    CANCELLED = "cancelled"  #: the :class:`CancellationToken` fired


class CancellationToken:
    """Cooperative cancellation: the search polls the token each step.

    ``cancel()`` may be called from any thread (e.g. a signal handler or
    a supervising batch runner); the enumerator stops at the next loop
    iteration and returns a resumable partial result.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


@dataclass(frozen=True)
class EnumerationLimits:
    """Resource budgets guarding the search.

    Counting budgets are exact upper bounds: at most ``max_behaviors``
    behaviors are popped from the worklist and at most ``max_executions``
    distinct executions are kept.
    """

    max_behaviors: int = 1_000_000  #: distinct behavior states explored
    max_executions: int = 100_000  #: distinct completed executions kept
    max_nodes_per_thread: int = 64  #: dynamic-instruction bound (loops)
    deadline_seconds: float | None = None  #: wall-clock budget per call
    max_memory_mb: float | None = None  #: approximate worklist+dedup budget


@dataclass
class EnumerationStats:
    """Counters describing one enumeration run.

    Every behavior popped from the worklist (and fully processed) falls
    into exactly one bucket, so ``explored == completed + stuck +
    branched`` holds at all times; ``duplicates`` counts *children*
    dropped before ever entering the worklist.
    """

    explored: int = 0  #: behaviors popped from the worklist
    resolutions: int = 0  #: (load, candidate) branches attempted
    duplicates: int = 0  #: behaviors dropped by the canonical-key check
    rolled_back: int = 0  #: speculation/bypass branches discarded (§5.2)
    truncated: int = 0  #: branches dropped at the node limit
    stuck: int = 0  #: incomplete behaviors with no eligible load (bug guard)
    completed: int = 0  #: completed executions reached (pre-dedup)
    branched: int = 0  #: incomplete behaviors expanded by Load Resolution
    candidates_scanned: int = 0  #: visible stores examined for candidacy

    def consistent(self) -> bool:
        """The pop-side accounting identity (see class docstring)."""
        return self.explored == self.completed + self.stuck + self.branched


#: Version stamped into every saved checkpoint's sealed framing.  Bump it
#: whenever the pickled layout changes incompatibly;
#: :meth:`EnumerationCheckpoint.load` rejects any other version.  Version 2:
#: ``Node`` gained construction-time slots that version-1 pickles lack.
#: Version 3: the ``dedup_exact`` field is gone — every dedup set holds
#: digests, and a version-2 checkpoint may hold full-tuple keys instead.
#: Version 4: the digests hash the state piece by piece
#: (:meth:`Execution.dedup_digest`), so a version-3 dedup set would match
#: none of them and re-explore every state it already holds.
#: Version 5: the search branches on one stable load where it can
#: (:func:`_stable_eligible`), so a version-4 worklist is a prefix of
#: another search and its dedup set holds states this one never reaches.
#: Version 6: the pickle is :func:`~repro.storage.seal`-ed (magic, version
#: byte, blake2b-8 of the payload), so a damaged file is refused before
#: it is unpickled; versions 1–5 were bare pickles.
CHECKPOINT_FORMAT_VERSION = 6

_CHECKPOINT_MAGIC = b"RCKP"  #: "repro checkpoint"


@dataclass
class EnumerationCheckpoint:
    """A resumable snapshot of an interrupted search.

    Holds the remaining worklist plus the dedup set and the completed
    executions gathered so far; :func:`resume_enumeration` continues the
    search exactly where it stopped, so a resumed run reaches the same
    behavior set as an unbudgeted run would have.

    On disk the checkpoint is a sealed pickle: :meth:`load` refuses a
    file whose framing, :data:`CHECKPOINT_FORMAT_VERSION` or checksum
    does not match with a clear :class:`EnumerationError` instead of
    unpickling damaged or foreign bytes.
    """

    program: Program
    model: MemoryModel
    limits: EnumerationLimits
    dedup: bool
    worklist: list[Execution]
    seen_states: set
    finished: dict
    stats: EnumerationStats

    def save(self, path: str | Path) -> None:
        """Serialize the checkpoint to ``path`` (a sealed pickle) with
        :func:`~repro.storage.atomic_write`: a run killed mid-save can
        never leave a truncated checkpoint behind (at worst the previous
        complete one survives)."""
        data = seal(_CHECKPOINT_MAGIC, CHECKPOINT_FORMAT_VERSION, pickle.dumps(self))
        atomic_write(path, data, fsync=False)

    @staticmethod
    def load(path: str | Path) -> "EnumerationCheckpoint":
        """Load a checkpoint previously written by :meth:`save`."""
        try:
            payload = unseal(
                _CHECKPOINT_MAGIC, CHECKPOINT_FORMAT_VERSION, Path(path).read_bytes()
            )
        except OSError as exc:
            raise EnumerationError(
                f"cannot load checkpoint {str(path)!r}: {exc}"
            ) from exc
        except ValueError as exc:
            raise EnumerationError(
                f"checkpoint {str(path)!r} {exc}; this build supports "
                f"version {CHECKPOINT_FORMAT_VERSION} — re-run the original "
                f"enumeration instead of resuming"
            ) from exc
        try:
            checkpoint = pickle.loads(payload)
        except (
            pickle.UnpicklingError,
            EOFError,
            # A sealed payload this build cannot rebuild (a layout change
            # without a version bump) surfaces as any of these:
            ValueError,
            AttributeError,
            ImportError,
            IndexError,
        ) as exc:
            raise EnumerationError(
                f"cannot load checkpoint {str(path)!r}: {exc}"
            ) from exc
        if not isinstance(checkpoint, EnumerationCheckpoint):
            raise EnumerationError(
                f"{str(path)!r} does not contain an enumeration checkpoint "
                f"(found {type(checkpoint).__name__})"
            )
        return checkpoint


@dataclass
class EnumerationResult:
    """All distinct behaviors of a program under a model.

    ``complete`` is False when a budget stopped the search early; then
    ``reason`` names the exhausted budget and ``checkpoint`` allows the
    search to be resumed.  The executions of a partial result are an
    honest subset of the full behavior set.
    """

    program: Program
    model: MemoryModel
    executions: list[Execution]
    stats: EnumerationStats = field(default_factory=EnumerationStats)
    complete: bool = True
    reason: ExhaustionReason | None = None
    checkpoint: EnumerationCheckpoint | None = None
    cached: bool = False  #: replayed from a :class:`BehaviorCache` hit

    def register_outcomes(self) -> frozenset[frozenset]:
        """The set of final-register outcomes over all executions.  Each
        outcome is a frozenset of ((thread, register), value) items."""
        return frozenset(
            frozenset(execution.final_registers().items()) for execution in self.executions
        )

    @property
    def status(self) -> str:
        """A short human-readable completeness label."""
        if self.complete:
            return "complete"
        reason = self.reason.value if self.reason is not None else "unknown"
        return f"partial ({reason})"

    def __len__(self) -> int:
        return len(self.executions)


def outcome_sort_key(outcome: frozenset) -> tuple:
    """A listing order for register outcomes that does not depend on
    string hashing: the outcome's sorted ``(thread, register, value)``
    triples, with integer values ordered before location names."""
    return tuple(
        sorted(
            (thread, register, isinstance(value, str), value)
            for (thread, register), value in outcome
        )
    )


# ----------------------------------------------------------------------
# approximate memory accounting (worklist + dedup set)

_EXEC_BASE_COST = 1024  #: bytes charged per queued behavior (object overhead)
_EXEC_NODE_COST = 512  #: bytes charged per graph node of a queued behavior


def _execution_cost(execution: Execution) -> int:
    return _EXEC_BASE_COST + _EXEC_NODE_COST * len(execution.graph.nodes)


class _MemoryAccountant:
    """Tracks an approximate byte total for the search's live state.

    Only active when ``max_memory_mb`` is set; otherwise every call is a
    no-op so the default fast path pays nothing.
    """

    def __init__(self, limit_mb: float | None) -> None:
        self.limit_bytes = None if limit_mb is None else int(limit_mb * 1024 * 1024)
        self.tracked = 0

    def charge_execution(self, execution: Execution) -> None:
        if self.limit_bytes is not None:
            self.tracked += _execution_cost(execution)

    def release_execution(self, execution: Execution) -> None:
        if self.limit_bytes is not None:
            self.tracked -= _execution_cost(execution)

    def charge_key(self, key: bytes) -> None:
        if self.limit_bytes is not None:
            self.tracked += sys.getsizeof(key)

    @property
    def exceeded(self) -> bool:
        return self.limit_bytes is not None and self.tracked > self.limit_bytes


# ----------------------------------------------------------------------
# canonical-state dedup keys


def _dedup_key(execution: Execution) -> bytes:
    """The ``seen_states`` membership key of a behavior: its
    :meth:`Execution.dedup_digest`.

    The digest is ``blake2b``-128 over the canonical state, fed piece by
    piece: one ``repr`` fragment per node in ``(tid, index)`` order and
    one per thread (a settled node's or halted thread's fragment is
    computed once and shared by every copy-on-write child), then the
    ancestor signature, bypass edges and pending alias pairs.  Two
    behaviors get equal digests exactly when their
    :meth:`Execution.state_key` tuples are equal, barring a 128-bit
    collision — which would silently drop a live behavior, and which the
    library never hits (a test checks that its digests map one-to-one
    onto its state keys).  Nothing hashed depends on ``hash()``, so a
    checkpoint resumes in any process.
    """
    return execution.dedup_digest()


# ----------------------------------------------------------------------
# the search driver


def enumerate_behaviors(
    program: Program,
    model: MemoryModel,
    limits: EnumerationLimits | None = None,
    dedup: bool = True,
    *,
    strict: bool = False,
    token: CancellationToken | None = None,
    cache: "BehaviorCache | None" = None,
) -> EnumerationResult:
    """Enumerate all distinct executions of ``program`` under ``model``.

    ``dedup=False`` disables the canonical-state deduplication of
    in-flight behaviors (completed executions are still merged by their
    Load–Store graphs).  The behavior set is unchanged; only the explored
    state count grows — the ablation knob for §4.1's "We discard duplicate
    behaviors from B at each Load Resolution step to avoid wasting effort".

    When a budget in ``limits`` is exhausted the search stops and returns
    a partial :class:`EnumerationResult` (``complete=False``) carrying an
    :class:`ExhaustionReason` and a resumable checkpoint; ``strict=True``
    instead raises :class:`EnumerationError` as older versions did.
    ``token`` allows a supervisor to cancel the search cooperatively.

    ``cache`` memoizes the call in a persistent
    :class:`~repro.cache.store.BehaviorCache`: the request's canonical
    :func:`~repro.core.serialization.behavior_cache_key` is looked up
    first (a hit returns instantly with ``result.cached = True``), and a
    fresh result is stored afterwards — but only when **complete**, so a
    budget-truncated search can never be replayed as the full behavior
    set.  A budget-exhausted search writes nothing to the cache; resume
    it through its ``checkpoint`` (:func:`resume_enumeration`).
    """
    limits = limits or EnumerationLimits()

    if cache is not None:
        cached = cache.replay(program, model, limits)
        if cached is not None:
            return cached

    result = _fresh_search(
        program, model, limits, dedup, strict, token, eligible=_stable_eligible
    )
    if cache is not None:
        cache.memoize(result, limits)
    return result


def _enumerate_full_eligibility(
    program: Program,
    model: MemoryModel,
    limits: EnumerationLimits | None = None,
    dedup: bool = True,
) -> EnumerationResult:
    """Enumerate as the paper's procedure does, branching on *every*
    eligible load: the same behavior set as :func:`enumerate_behaviors`,
    reached through every resolution order (so with duplicates and
    rolled-back speculation).  The stable-load reduction's baseline and
    oracle: the differential tests, the TAB-SCALE dedup ablation, the
    FIG8_9 rollback check and the solver gate's speed floor run on it."""
    limits = limits or EnumerationLimits()
    return _fresh_search(program, model, limits, dedup, False, None, eligible=_eligible)


def _fresh_search(
    program: Program,
    model: MemoryModel,
    limits: EnumerationLimits,
    dedup: bool,
    strict: bool,
    token: CancellationToken | None,
    *,
    eligible,
) -> EnumerationResult:
    """:func:`_search` from the program's initial behavior."""
    initial = Execution.initial(program, model, limits.max_nodes_per_thread)
    return _search(
        program,
        model,
        limits,
        dedup,
        strict,
        token,
        worklist=[initial],
        seen_states={_dedup_key(initial)},
        finished={},
        stats=EnumerationStats(),
        eligible=eligible,
    )


def resume_enumeration(
    checkpoint: EnumerationCheckpoint,
    limits: EnumerationLimits | None = None,
    *,
    strict: bool = False,
    token: CancellationToken | None = None,
) -> EnumerationResult:
    """Continue an interrupted search from a checkpoint.

    ``limits`` replaces the checkpointed budgets (typically with bigger
    ones); omitted, the original limits apply — which stops immediately
    again if the same counting budget is still exhausted.  The deadline
    clock restarts at the time of this call.

    Counting budgets are cumulative across resumes: ``stats`` carries
    over, so ``max_behaviors=N`` bounds the *total* behaviors explored
    by the original run plus every resume.
    """
    limits = limits or checkpoint.limits
    return _search(
        checkpoint.program,
        checkpoint.model,
        limits,
        checkpoint.dedup,
        strict,
        token,
        list(checkpoint.worklist),
        set(checkpoint.seen_states),
        finished=dict(checkpoint.finished),
        stats=replace(checkpoint.stats),
        eligible=_stable_eligible,
    )


# ----------------------------------------------------------------------
# the standard Load Resolution rules: _search's default hooks.  Each
# looks its callee up when called, so a rebound ``candidate_stores`` or
# ``Execution`` method (a fuzz mutant, the benchmark tracer) is seen.


def _eligible(behavior: Execution) -> list:
    return behavior.eligible_loads()


def _stable_eligible(behavior: Execution) -> list:
    """The enumerator's eligibility: one *stable* eligible load when
    there is one, else every eligible load (:func:`_eligible`).

    A load ``L`` is stable when no live thread waits on an unresolved
    branch (every node is generated) and every store or RMW other than
    ``L`` that is not ⊑-after ``L`` either has a known address other than
    ``L.addr``, or is executed at ``L.addr`` with every memory operation
    ⊑-before it executed.  Then no store can become a candidate of ``L``
    later, so the source of ``L`` in every complete extension is already
    in ``candidates(L)``: branching on ``L`` alone loses no behavior, and
    the orders in which ``L`` and the other loads could resolve are not
    explored separately.  See DESIGN.md, "Stable-load reduction"."""
    loads = behavior.eligible_loads()
    if len(loads) < 2:
        return loads
    if any(state.waiting_branch is not None for state in behavior.threads):
        return loads
    graph = behavior.graph
    anc = graph._anc
    unexecuted_memory = 0
    for node in graph.nodes:
        if node.is_memory and not node.executed:
            unexecuted_memory |= 1 << node.nid
    anywhere = 0  # writers whose address is still unknown
    unsettled: dict = {}  # address -> writers there that may still change
    for node in graph.nodes:
        if not node.writes_memory:
            continue
        if node.addr is None:
            anywhere |= 1 << node.nid
        elif not node.executed or anc[node.nid] & unexecuted_memory:
            unsettled[node.addr] = unsettled.get(node.addr, 0) | 1 << node.nid
    desc = graph._desc
    for load in loads:
        blockers = (anywhere | unsettled.get(load.addr, 0)) & ~desc[load.nid]
        if not blockers & ~(1 << load.nid):
            return [load]
    return loads


def _candidates(behavior: Execution, load, stats: EnumerationStats) -> list:
    return candidate_stores(behavior, load, stats)


def _resolve(child: Execution, load_nid: int, store_nid: int) -> None:
    child.resolve_load(load_nid, store_nid)


def _search(
    program: Program,
    model: MemoryModel,
    limits: EnumerationLimits,
    dedup: bool,
    strict: bool,
    token: CancellationToken | None,
    worklist: list[Execution],
    seen_states: set,
    finished: dict,
    stats: EnumerationStats,
    *,
    eligible=_eligible,
    candidates=_candidates,
    resolve=_resolve,
    start: float | None = None,
) -> EnumerationResult:
    """The one Load-Resolution loop.  The well-sync check, value
    speculation and the solver's branchy replay reuse it by replacing
    the hooks: ``eligible(behavior)`` lists the loads to branch on,
    ``candidates(behavior, load, stats)`` their stores, and
    ``resolve(child, load_nid, store_nid)`` applies one choice to a copy
    (raising CycleError or AtomicityViolation to roll it back).  The
    deadline runs from ``start``: now, unless the caller's budget began
    earlier."""
    start = time.monotonic() if start is None else start
    accountant = _MemoryAccountant(limits.max_memory_mb)
    if accountant.limit_bytes is not None:
        for queued in worklist:
            accountant.charge_execution(queued)
        for key in seen_states:
            accountant.charge_key(key)

    reason: ExhaustionReason | None = None
    while worklist:
        reason = _budget_exhausted(limits, stats, start, accountant, token)
        if reason is not None:
            if strict:
                raise _strict_error(reason, program, model, limits)
            break

        behavior = worklist.pop()
        accountant.release_execution(behavior)
        stats.explored += 1

        if behavior.completed():
            key = behavior.loadstore_key()
            if key not in finished and len(finished) >= limits.max_executions:
                # Keeping this execution would exceed the budget: requeue
                # the behavior (and undo its pop accounting) so a resume
                # under a bigger budget sees it again.
                worklist.append(behavior)
                accountant.charge_execution(behavior)
                stats.explored -= 1
                reason = ExhaustionReason.EXECUTION_BUDGET
                if strict:
                    raise _strict_error(reason, program, model, limits)
                break
            stats.completed += 1
            finished.setdefault(key, behavior)
            continue

        loads = eligible(behavior)
        if not loads:
            stats.stuck += 1
            continue
        stats.branched += 1

        reason = _branch(
            behavior, loads, dedup, worklist, seen_states, stats, accountant,
            candidates, resolve,
        )
        if reason is not None:
            # The behavior was only partly expanded: requeue it so the
            # remaining branches are regenerated on resume (already-seen
            # children dedup away), and undo its pop accounting.
            worklist.append(behavior)
            accountant.charge_execution(behavior)
            stats.explored -= 1
            stats.branched -= 1
            if strict:
                raise _strict_error(reason, program, model, limits)
            break

    if stats.stuck > 0:
        warnings.warn(
            StuckBehaviorWarning(
                f"{stats.stuck} behavior(s) of {program.name!r} under "
                f"{model.name} got stuck with no eligible load — this "
                f"indicates an enumeration-engine bug"
            ),
            stacklevel=2,
        )

    # ``finished`` already holds each execution's Load–Store key.
    executions = [finished[key] for key in sorted(finished, key=repr)]
    complete = reason is None
    checkpoint = None
    if not complete:
        checkpoint = EnumerationCheckpoint(
            program=program,
            model=model,
            limits=limits,
            dedup=dedup,
            worklist=list(worklist),
            seen_states=set(seen_states),
            finished=dict(finished),
            stats=replace(stats),
        )
    return EnumerationResult(
        program, model, executions, stats, complete, reason, checkpoint
    )


def _branch(
    behavior: Execution,
    loads: list,
    dedup: bool,
    worklist: list[Execution],
    seen_states: set,
    stats: EnumerationStats,
    accountant: _MemoryAccountant,
    candidates,
    resolve,
) -> ExhaustionReason | None:
    """Expand one behavior by Load Resolution.  Returns an exhaustion
    reason when a fault forces the search to degrade, else None."""
    for load in loads:
        for store in candidates(behavior, load, stats):
            stats.resolutions += 1
            try:
                child = behavior.copy()
                resolve(child, load.nid, store.nid)
            except (CycleError, AtomicityViolation):
                stats.rolled_back += 1
                continue
            except EnumerationError:
                stats.truncated += 1
                continue
            except MemoryError:
                # Allocation pressure (real or injected): stop cleanly
                # with whatever has been gathered so far.
                return ExhaustionReason.MEMORY
            if dedup:
                key = _dedup_key(child)
                if key in seen_states:
                    stats.duplicates += 1
                    continue
                seen_states.add(key)
                accountant.charge_key(key)
            worklist.append(child)
            accountant.charge_execution(child)
    return None


def _budget_exhausted(
    limits: EnumerationLimits,
    stats: EnumerationStats,
    start: float,
    accountant: _MemoryAccountant,
    token: CancellationToken | None,
) -> ExhaustionReason | None:
    """The one budget check (before each pop, and each solver step), cheapest test first."""
    if token is not None and token.cancelled:
        return ExhaustionReason.CANCELLED
    if stats.explored >= limits.max_behaviors:
        return ExhaustionReason.BEHAVIOR_BUDGET
    if accountant.exceeded:
        return ExhaustionReason.MEMORY
    if (
        limits.deadline_seconds is not None
        and time.monotonic() - start >= limits.deadline_seconds
    ):
        return ExhaustionReason.DEADLINE
    return None


def _strict_error(
    reason: ExhaustionReason,
    program: Program,
    model: MemoryModel,
    limits: EnumerationLimits,
) -> EnumerationError:
    descriptions = {
        ExhaustionReason.BEHAVIOR_BUDGET: (
            f"exceeded {limits.max_behaviors} explored behaviors"
        ),
        ExhaustionReason.EXECUTION_BUDGET: (
            f"exceeded {limits.max_executions} distinct executions"
        ),
        ExhaustionReason.DEADLINE: (
            f"exceeded the {limits.deadline_seconds}s deadline"
        ),
        ExhaustionReason.MEMORY: (
            f"exceeded the {limits.max_memory_mb} MB memory budget"
            if limits.max_memory_mb is not None
            else "ran out of memory during Load Resolution"
        ),
        ExhaustionReason.CANCELLED: "cancelled by the caller",
    }
    return EnumerationError(
        f"{descriptions[reason]} for {program.name!r} under {model.name}",
        reason=reason,
    )
