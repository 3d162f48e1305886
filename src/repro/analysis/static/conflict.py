"""Model-aware conflict-graph and critical-cycle analysis.

The dynamic analyses (`wellsync`, `fencesynth`, `compare`) answer
ordering questions by running the exponential enumerator.  This module
answers the same questions *statically*, in polynomial time, from two
ingredients:

* the **conflict graph** of a :class:`~repro.isa.program.Program` —
  program-order edges within threads, conflict edges between
  same-location cross-thread accesses where at least one writes,
* the model's :class:`~repro.models.base.ReorderingTable`, which decides
  which program-order edges the hardware already **enforces** (directly,
  through fences/acquire-release, via register dataflow, via the §5.1
  address-resolution dependencies, or transitively).

Following Shasha & Snir (paper §7), a relaxed outcome requires a
*critical cycle* — a minimal cycle alternating program-order and
conflict edges — in which **every** program-order edge left unenforced
by the model is simultaneously relaxed.  Hence:

* **required delay edges** under a model = the unenforced program-order
  pairs appearing in some critical cycle (all of them must be fenced to
  forbid the cycle's outcome),
* **suggested fence sites** = the insertion gaps covering those pairs,
* **predicted races** = conflict edges with a read side (a load whose
  value can come from more than one store).

By default the analysis runs on top of the dataflow layer
(:mod:`repro.analysis.static.dataflow`): register-computed addresses get
value sets instead of "aliases everything", statically-dead branch arms
are skipped, and every finding carries provenance — ``exact`` when the
underlying accesses have a single certain address on an unconditional
path, over-approximated otherwise.  ``precise=False`` restores the
purely syntactic PR-2 behavior.  All verdicts remain sound
over-approximations of the enumerator's; TAB-STATIC and TAB-DATAFLOW
cross-validate them against `wellsync`, `fencesynth`, and
enumeration on the whole litmus library.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.sites import FenceSite
from repro.analysis.static.dataflow import (
    StaticFacts,
    ThreadFacts,
    collect_memory_accesses,
    compute_static_facts,
    may_alias,
    must_alias,
    static_location,
)
from repro.isa.instructions import Branch, OpClass
from repro.isa.operands import Reg
from repro.isa.program import Program, Thread
from repro.models.base import MemoryModel, OrderRequirement
from repro.models.registry import get_model


@dataclass(frozen=True)
class StaticAccess:
    """One static memory access.

    ``location`` is the single statically-certain address, or None.
    ``locations`` is the dataflow-computed may-address set (any
    :class:`~repro.isa.operands.Value` members; None = unknown, aliases
    everything) — absent on conservatively-collected accesses, where
    ``location`` alone decides aliasing exactly as in PR 2."""

    thread: str
    index: int  #: static instruction index within the thread
    kind: str  #: "R", "W", or "RW" (an RMW is both)
    location: str | None
    locations: frozenset | None = None
    must_execute: bool = True

    def reads(self) -> bool:
        return "R" in self.kind

    def writes(self) -> bool:
        return "W" in self.kind

    def effective_locations(self) -> frozenset | None:
        if self.locations is not None:
            return self.locations
        return frozenset({self.location}) if self.location is not None else None

    @property
    def exact(self) -> bool:
        """A single certain address on an unconditionally-executed access."""
        locations = self.effective_locations()
        return self.must_execute and locations is not None and len(locations) == 1

    def may_alias(self, other: "StaticAccess") -> bool:
        return may_alias(self.effective_locations(), other.effective_locations())

    def must_alias(self, other: "StaticAccess") -> bool:
        """Both accesses certainly target the same single address."""
        return must_alias(self.effective_locations(), other.effective_locations())

    def __str__(self) -> str:
        where = self.location if self.location is not None else "?"
        return f"{self.thread}[{self.index}]:{self.kind}{where}"


@dataclass(frozen=True, order=True)
class DelayEdge:
    """A program-order pair in a critical cycle that the model does not
    enforce — it must be fenced to forbid the cycle's outcome.  ``exact``
    records provenance: True when some contributing cycle consists of
    exact accesses only (the delay is certainly real, not an artifact of
    over-approximated aliasing or a conditional path)."""

    thread: str
    first_index: int
    second_index: int
    exact: bool = field(default=True, compare=False)

    def covers(self, position: int) -> bool:
        """Whether a fence inserted before ``position`` orders this pair."""
        return self.first_index < position <= self.second_index

    def __str__(self) -> str:
        return f"{self.thread}[{self.first_index} -> {self.second_index}]"


@dataclass(frozen=True)
class RacePrediction:
    """A load whose value may come from more than one store.  ``exact``
    is True when the load and every writer have certain addresses on
    unconditional paths — the race is definitely observable, not an
    over-approximation."""

    thread: str
    index: int
    location: str | None
    stores: tuple[StaticAccess, ...]  #: the conflicting writers
    locations: frozenset | None = None  #: the load's may-address set
    exact: bool = True

    def __str__(self) -> str:
        where = self.location if self.location is not None else "?"
        writers = ", ".join(str(s) for s in self.stores)
        return (
            f"load of {where!r} at {self.thread}[{self.index}] races with "
            f"{len(self.stores)} store(s): {writers}"
        )


#: A fence insertion gap (before instruction ``position``) covering at
#: least one required delay edge.  Historically its own dataclass; now
#: the shared :class:`repro.analysis.sites.FenceSite`, so static and
#: enumerative synthesis report identical coordinates.
SuggestedFence = FenceSite


@dataclass
class StaticReport:
    """The static verdicts for one program under one model."""

    program_name: str
    model_name: str
    accesses: tuple[StaticAccess, ...]
    critical_cycles: tuple[tuple[StaticAccess, ...], ...]
    live_cycles: tuple[tuple[StaticAccess, ...], ...]  #: cycles with a relaxed po edge
    races: tuple[RacePrediction, ...]
    delays: tuple[DelayEdge, ...]
    fence_sites: tuple[SuggestedFence, ...]
    conservative: bool  #: some finding is over-approximated
    precise: bool = False  #: analysis ran on dataflow facts
    #: the cycle search stopped at its cap: cycles, delay edges and
    #: fence sites may be incomplete, so no robustness claim holds
    truncated: bool = False

    def predicts_race(self, thread: str, location: str) -> bool:
        """Whether some predicted race could be the dynamic race observed
        on ``location`` in ``thread`` (an unknown location matches
        anything)."""
        for race in self.races:
            if race.thread != thread:
                continue
            locations = race.locations
            if locations is None and race.location is not None:
                locations = frozenset({race.location})
            if locations is None or location in locations:
                return True
        return False

    def covers_site(self, thread: str, position: int) -> bool:
        """Whether a fence at this insertion gap enforces a required
        delay edge (i.e. the site is statically predicted useful)."""
        return any(
            delay.thread == thread and delay.covers(position) for delay in self.delays
        )

    def finding_provenance(self) -> tuple[int, int]:
        """(exact, over-approximated) counts over races + delay edges."""
        findings = list(self.races) + list(self.delays)
        exact = sum(1 for finding in findings if finding.exact)
        return exact, len(findings) - exact

    def summary(self) -> str:
        if self.precise:
            exact, approx = self.finding_provenance()
            caveat = f" [{approx} finding(s) over-approximated]" if approx else ""
        else:
            caveat = (
                " [conservative: branches or dynamic addresses]"
                if self.conservative
                else ""
            )
        if self.truncated:
            caveat += (
                f" [cycle search stopped at {len(self.critical_cycles)} "
                "cycles: delay edges may be incomplete]"
            )
        lines = [
            f"{self.program_name} under {self.model_name}: "
            f"{len(self.critical_cycles)} critical cycle(s), "
            f"{len(self.live_cycles)} live, {len(self.races)} predicted race(s), "
            f"{len(self.delays)} required delay edge(s){caveat}"
        ]
        for cycle in self.live_cycles[:6]:
            lines.append("  cycle: " + " -> ".join(str(a) for a in cycle))
        if len(self.live_cycles) > 6:
            lines.append(f"  ... and {len(self.live_cycles) - 6} more")
        for race in self.races[:6]:
            lines.append(f"  race: {race}")
        if len(self.races) > 6:
            lines.append(f"  ... and {len(self.races) - 6} more")
        if self.delays:
            lines.append(
                "  delay edges: " + ", ".join(str(d) for d in self.delays)
            )
            lines.append(
                "  suggested fences: "
                + ", ".join(str(s) for s in self.fence_sites)
            )
        elif not self.truncated:
            lines.append("  no fences required")
        return "\n".join(lines)


def collect_accesses(
    program: Program, facts: StaticFacts | None = None
) -> tuple[StaticAccess, ...]:
    """All static memory accesses.  Without ``facts``, conservatively
    assumes every access may execute and register-computed addresses
    alias everything (PR 2); with ``facts``, attaches the dataflow
    address sets, drops statically-dead branch arms, and records
    must-execute provenance."""
    accesses = []
    for site in collect_memory_accesses(program):
        if facts is None:
            accesses.append(
                StaticAccess(site.thread, site.index, site.kind, site.location)
            )
            continue
        if facts.is_dead(site.tid, site.index):
            continue
        access_facts = facts.access(site.tid, site.index)
        if access_facts is None:
            accesses.append(
                StaticAccess(site.thread, site.index, site.kind, site.location)
            )
            continue
        location = site.location
        addresses = access_facts.addresses
        if location is None and addresses is not None and len(addresses) == 1:
            (only,) = addresses
            if isinstance(only, str):
                location = only
        accesses.append(
            StaticAccess(
                site.thread,
                site.index,
                site.kind,
                location,
                locations=addresses,
                must_execute=access_facts.must_execute,
            )
        )
    return tuple(accesses)


def _dataflow_edges(thread: Thread) -> set[tuple[int, int]]:
    """Definite register-dependency edges (writer -> reader) within a
    straight-line thread — the PR-2 fallback when no dataflow facts are
    available.  Branchy threads contribute nothing here."""
    if any(isinstance(instruction, Branch) for instruction in thread.code):
        return set()
    edges: set[tuple[int, int]] = set()
    last_writer: dict[str, int] = {}
    for index, instruction in enumerate(thread.code):
        for register in instruction.sources():
            if register.name in last_writer:
                edges.add((last_writer[register.name], index))
        destination = instruction.dest()
        if destination is not None:
            last_writer[destination.name] = index
    return edges


def _addr_dep_edges(
    thread: Thread, model: MemoryModel, thread_facts: ThreadFacts
) -> set[tuple[int, int, int]]:
    """Static §5.1 edges as (producer, target, checked) triples: for a
    same-address-checked pair (checked, target) whose earlier address is
    register-computed, the non-speculative machine orders the producer
    of that address before the later operation."""
    edges: set[tuple[int, int, int]] = set()
    code = thread.code
    for checked, instruction in enumerate(code):
        if not instruction.op_class.is_memory():
            continue
        addr = instruction.addr_operand()
        if not isinstance(addr, Reg):
            continue
        producer = thread_facts.unique_def(checked, addr.name)
        if producer is None:
            continue
        for target in range(checked + 1, len(code)):
            requirement = model.requirement(instruction, code[target])
            if requirement is OrderRequirement.SAME_ADDRESS and producer < target:
                edges.add((producer, target, checked))
    return edges


def enforced_order(
    thread: Thread,
    model: MemoryModel,
    facts: StaticFacts | None = None,
    *,
    addr_deps: bool = True,
    drop_addr_dep_target: int | None = None,
    bypass_coherence: bool = False,
) -> list[list[bool]]:
    """The per-thread enforced partial order: ``matrix[i][j]`` (i < j) is
    True when the model definitely keeps instruction ``i`` ordered before
    instruction ``j`` in every execution — by a table entry, a fence or
    acquire/release annotation, a definite dataflow edge, a §5.1
    address-resolution dependency (non-speculative models, with facts),
    or a transitive chain of those.

    ``bypass_coherence=True`` additionally treats a plain same-address
    Store→Load pair as enforced under ``store_load_bypass`` models: the
    table exempts the pair (requirement NONE) because the load may
    overtake the *buffered* store, but forwarding means it can never
    observe an older value — the pair is ordered in every observable
    outcome, which is what cycle-liveness cares about.  Crucially the
    forwarded pair is only *observably* ordered, not globally ordered:
    the load can retire (off the forwarded value) before the store
    drains to memory, so ``S x → L x → S y`` must NOT conclude
    ``S x → S y``.  Forwarded pairs are therefore applied to the matrix
    *after* the transitive closure and never feed it.  Off by default
    because the raw matrix is also used to answer "which pairs does the
    table itself enforce" (the PR-2/PR-3 contract)."""
    size = len(thread.code)
    matrix = [[False] * size for _ in range(size)]
    thread_facts: ThreadFacts | None = None
    if facts is not None:
        try:
            thread_facts = facts.by_name(thread.name)
        except KeyError:
            thread_facts = None
    precise = thread_facts is not None and thread_facts.analyzable

    def same_single_address(i: int, j: int) -> bool:
        if precise:
            first = thread_facts.accesses.get(i)
            second = thread_facts.accesses.get(j)
            return (
                first is not None
                and second is not None
                and must_alias(first.addresses, second.addresses)
            )
        first_loc = static_location(thread.code[i])
        second_loc = static_location(thread.code[j])
        return first_loc is not None and first_loc == second_loc

    forwarded: list[tuple[int, int]] = []
    for i in range(size):
        for j in range(i + 1, size):
            requirement = model.requirement(thread.code[i], thread.code[j])
            if requirement is OrderRequirement.ALWAYS:
                matrix[i][j] = True
            elif requirement is OrderRequirement.SAME_ADDRESS:
                matrix[i][j] = same_single_address(i, j)
            elif (
                bypass_coherence
                and requirement is OrderRequirement.NONE
                and model.store_load_bypass
                and thread.code[i].op_class is OpClass.STORE
                and thread.code[j].op_class is OpClass.LOAD
                and same_single_address(i, j)
            ):
                forwarded.append((i, j))

    if precise:
        for writer, reader in thread_facts.definite_deps:
            matrix[writer][reader] = True
        if addr_deps and not model.speculative_aliasing:
            for producer, target, _checked in _addr_dep_edges(
                thread, model, thread_facts
            ):
                if target != drop_addr_dep_target:
                    matrix[producer][target] = True
    else:
        for i, j in _dataflow_edges(thread):
            matrix[i][j] = True

    # Transitive closure: ordered-before is transitive across the chain.
    for k in range(size):
        for i in range(k):
            if matrix[i][k]:
                row_k = matrix[k]
                row_i = matrix[i]
                for j in range(k + 1, size):
                    if row_k[j]:
                        row_i[j] = True
    # Forwarded Store→Load pairs are observably ordered as direct pairs
    # only — applied after the closure so they never extend a chain.
    for i, j in forwarded:
        matrix[i][j] = True
    return matrix


#: The default cap on recorded critical cycles.
MAX_CYCLES = 10_000


def _conflicting(a: StaticAccess, b: StaticAccess) -> bool:
    return (
        a.thread != b.thread
        and may_alias(a.effective_locations(), b.effective_locations())
        and (a.writes() or b.writes())
    )


def find_critical_cycles(
    program: Program,
    accesses: tuple[StaticAccess, ...] | None = None,
    max_cycles: int = MAX_CYCLES,
) -> tuple[tuple[StaticAccess, ...], ...]:
    """All minimal critical cycles of the conflict graph: simple cycles
    over program-order + conflict edges, at most two accesses per thread
    and three per location, never immediately backtracking a conflict
    edge.  Unlike :func:`repro.analysis.delays.find_critical_cycles`,
    this handles branches and dynamic addresses conservatively.  The
    search stops at ``max_cycles``; :func:`critical_cycle_search` also
    says whether it did."""
    accesses = collect_accesses(program) if accesses is None else accesses
    cycles, _truncated = critical_cycle_search(accesses, _conflicting, max_cycles)
    return cycles


def critical_cycle_search(
    accesses, conflicting, max_cycles: int | None = MAX_CYCLES
) -> tuple[tuple, bool]:
    """The shared Shasha–Snir cycle search: ``(cycles, truncated)``.

    ``accesses`` are any objects with ``thread``, ``index`` and
    ``location`` (None for an unknown address); ``conflicting(a, b)``
    decides the conflict edges.  A depth-first search from each access
    in turn walks simple paths whose accesses all come after the start,
    and records a path when a conflict edge closes it back to the start
    with at least three accesses and one program-order edge, once per
    access set.  Shasha–Snir minimality allows at most two accesses per
    thread and three per location key (IRIW touches each location three
    times); the key is the location, or ``str(access)`` for an unknown
    address.  ``truncated`` is True when the ``max_cycles`` cap (None =
    no cap) cut some part of the search short, so more cycles may exist.

    The static work is done once: each access's successor row holds
    (position, is-conflict) pairs in access order, exactly the order a
    scan of every access at each step would yield them, and the DFS
    runs over positions with an on-path array.  A prefix holding a
    third access of one thread or a fourth of one location key is
    pruned: every cycle closed below it contains it, so fails
    minimality and would never be recorded.  A pruned subtree therefore
    holds no closures, the cycles come out in the same order as the
    unpruned search, and the cap cuts at the same point.
    """
    size = len(accesses)
    thread_ids: dict[str, int] = {}
    key_ids: dict[str, int] = {}
    thread_of = []
    key_of = []
    for access in accesses:
        thread_of.append(thread_ids.setdefault(access.thread, len(thread_ids)))
        key = access.location if access.location is not None else str(access)
        key_of.append(key_ids.setdefault(key, len(key_ids)))
    rows = []
    for current in accesses:
        row = []
        for position, candidate in enumerate(accesses):
            if candidate is current:
                continue
            if candidate.thread == current.thread:
                if candidate.index > current.index:
                    row.append((position, False))
            elif conflicting(current, candidate):
                row.append((position, True))
        rows.append(row)

    cycles: list[tuple] = []
    seen: set[frozenset[int]] = set()
    path: list[int] = []
    on_path = [False] * size
    per_thread = [0] * len(thread_ids)
    per_key = [0] * len(key_ids)
    truncated = False

    def extend(current: int, came_from: int, po_edges: int) -> None:
        nonlocal truncated
        if max_cycles is not None and len(cycles) >= max_cycles:
            truncated = True
            return
        path.append(current)
        on_path[current] = True
        per_thread[thread_of[current]] += 1
        per_key[key_of[current]] += 1
        for nxt, conflict in rows[current]:
            if conflict and nxt == came_from:
                continue  # no immediate backtracking
            if nxt == start:
                if conflict and po_edges and len(path) >= 3:
                    closed = frozenset(path)
                    if closed not in seen:
                        seen.add(closed)
                        cycles.append(tuple(accesses[p] for p in path))
                continue
            if on_path[nxt] or nxt < start:
                continue  # simple paths; canonical start: smallest first
            if per_thread[thread_of[nxt]] == 2 or per_key[key_of[nxt]] == 3:
                continue  # no extension can be minimal
            extend(nxt, current if conflict else -1, po_edges + (not conflict))
        per_key[key_of[current]] -= 1
        per_thread[thread_of[current]] -= 1
        on_path[current] = False
        path.pop()

    for start in range(size):
        extend(start, -1, 0)
    return tuple(cycles), truncated


def _cycle_po_pairs(
    cycle: tuple[StaticAccess, ...],
) -> list[tuple[StaticAccess, StaticAccess]]:
    pairs = []
    extended = cycle + (cycle[0],)
    for first, second in zip(extended, extended[1:]):
        if first.thread == second.thread and first.index < second.index:
            pairs.append((first, second))
    return pairs


def _predict_races(
    accesses: tuple[StaticAccess, ...], model: MemoryModel
) -> tuple[RacePrediction, ...]:
    """Loads whose value may come from more than one store.

    A cross-thread conflicting store always makes a load racy in some
    interleaving (the initial store is the competing candidate).  Local
    stores only add candidates when the model fails to keep same-address
    Store→Load pairs ordered — the registered models all do (via the
    x ≠ y entries or store-buffer forwarding), and the model linter
    flags tables that don't."""
    locally_coherent = model.store_load_bypass or (
        model.class_requirement(OpClass.STORE, OpClass.LOAD)
        >= OrderRequirement.SAME_ADDRESS
    )
    races = []
    for access in accesses:
        if not access.reads():
            continue
        remote = tuple(
            other
            for other in accesses
            if other.thread != access.thread
            and other.writes()
            and access.may_alias(other)
        )
        local = ()
        if not locally_coherent:
            local = tuple(
                other
                for other in accesses
                if other.thread == access.thread
                and other.index != access.index
                and other.writes()
                and access.may_alias(other)
            )
        writers = remote + local
        if writers:
            exact = access.exact and all(
                writer.exact and writer.must_alias(access) for writer in writers
            )
            races.append(
                RacePrediction(
                    access.thread,
                    access.index,
                    access.location,
                    writers,
                    locations=access.effective_locations(),
                    exact=exact,
                )
            )
    return tuple(races)


def analyze_program(
    program: Program,
    model: MemoryModel | str,
    *,
    precise: bool = True,
    facts: StaticFacts | None = None,
    bypass_coherence: bool = False,
) -> StaticReport:
    """The full static analysis of ``program`` under ``model`` — no
    enumeration anywhere on this path.  ``precise=True`` (the default)
    runs on the dataflow facts; ``precise=False`` restores the PR-2
    syntactic analysis (register-computed addresses alias everything).
    ``bypass_coherence=True`` refines store-buffer models as documented
    on :func:`enforced_order` — the setting the repair/robustness layer
    uses, since observable order is what decides cycle liveness."""
    if isinstance(model, str):
        model = get_model(model)
    if precise:
        if facts is None:
            facts = compute_static_facts(program)
    else:
        facts = None
    accesses = collect_accesses(program, facts)
    cycles, truncated = critical_cycle_search(accesses, _conflicting)
    enforced = {
        thread.name: enforced_order(
            thread, model, facts, bypass_coherence=bypass_coherence
        )
        for thread in program.threads
    }

    live: list[tuple[StaticAccess, ...]] = []
    delay_exact: dict[tuple[str, int, int], bool] = {}
    for cycle in cycles:
        relaxed = [
            (first, second)
            for first, second in _cycle_po_pairs(cycle)
            if not enforced[first.thread][first.index][second.index]
        ]
        if relaxed:
            live.append(cycle)
            cycle_exact = all(access.exact for access in cycle)
            for first, second in relaxed:
                key = (first.thread, first.index, second.index)
                delay_exact[key] = delay_exact.get(key, False) or cycle_exact

    delays = tuple(
        sorted(
            DelayEdge(thread, first, second, exact=exact)
            for (thread, first, second), exact in delay_exact.items()
        )
    )
    sites = sorted(
        {SuggestedFence(delay.thread, delay.first_index + 1) for delay in delays},
        key=lambda site: (site.thread, site.position),
    )
    races = _predict_races(accesses, model)
    if facts is not None:
        conservative = any(not race.exact for race in races) or any(
            not delay.exact for delay in delays
        )
    else:
        conservative = program.has_branches() or any(
            access.location is None for access in accesses
        )
    return StaticReport(
        program_name=program.name,
        model_name=model.name,
        accesses=accesses,
        critical_cycles=cycles,
        live_cycles=tuple(live),
        races=races,
        delays=delays,
        fence_sites=tuple(sites),
        conservative=conservative,
        precise=facts is not None,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# speculation safety (paper §5: which loads may be alias-speculated?)


@dataclass(frozen=True)
class LoadSpeculationVerdict:
    """Whether one load may be alias-speculated — resolved before the
    addresses of earlier same-address-checked accesses are known —
    without admitting behaviors the non-speculative model forbids."""

    thread: str
    index: int
    safe: bool
    reason: str

    def __str__(self) -> str:
        verdict = "safe" if self.safe else "UNSAFE"
        return f"{self.thread}[{self.index}]: {verdict} — {self.reason}"


@dataclass
class SpeculationReport:
    """Per-load speculation-safety verdicts for one program/model."""

    program_name: str
    model_name: str
    loads: tuple[LoadSpeculationVerdict, ...]
    truncated: bool = False  #: the cycle search stopped at its cap

    @property
    def all_safe(self) -> bool:
        return all(load.safe for load in self.loads)

    def unsafe_loads(self) -> tuple[LoadSpeculationVerdict, ...]:
        return tuple(load for load in self.loads if not load.safe)

    def summary(self) -> str:
        unsafe = len(self.unsafe_loads())
        caveat = " [cycle search stopped at its cap]" if self.truncated else ""
        lines = [
            f"{self.program_name} under {self.model_name}: "
            f"{len(self.loads)} load(s), {unsafe} unsafe to alias-speculate{caveat}"
        ]
        lines.extend(f"  {load}" for load in self.loads)
        return "\n".join(lines)


def speculation_safety(
    program: Program,
    model: MemoryModel | str,
    facts: StaticFacts | None = None,
) -> SpeculationReport:
    """Classify each load: safe or unsafe to alias-speculate.

    Alias speculation (paper §5, Figures 8/9) drops the §5.1
    address-resolution dependencies — a load no longer waits for the
    producers of earlier register-computed addresses it is
    same-address-checked against.  A load is **unsafe** when dropping
    those dependencies lets some critical cycle that the
    (non-speculative) model kept dead go live, i.e. speculation without
    rollback would admit a new behavior through that load.  The global
    check is joint — all dependencies dropped at once — so ``all_safe``
    soundly implies the speculative model's outcome set equals the
    non-speculative one.
    """
    if isinstance(model, str):
        model = get_model(model)
    baseline = (
        replace(model, speculative_aliasing=False)
        if model.speculative_aliasing
        else model
    )
    if facts is None:
        facts = compute_static_facts(program)
    accesses = collect_accesses(program, facts)
    cycles, truncated = critical_cycle_search(accesses, _conflicting)

    full = {
        thread.name: enforced_order(thread, baseline, facts)
        for thread in program.threads
    }
    spec = {
        thread.name: enforced_order(thread, baseline, facts, addr_deps=False)
        for thread in program.threads
    }
    threads_by_name = {thread.name: thread for thread in program.threads}

    #: (thread name, load index) -> producers its addr-deps point from.
    targets: dict[str, set[int]] = {}
    for tid, thread in enumerate(program.threads):
        thread_facts = facts.threads[tid]
        if thread_facts.analyzable and not baseline.speculative_aliasing:
            targets[thread.name] = {
                target
                for _producer, target, _checked in _addr_dep_edges(
                    thread, baseline, thread_facts
                )
            }
        else:
            targets[thread.name] = set()

    def cycle_dead(matrices) -> bool:
        return all(
            matrices[first.thread][first.index][second.index]
            for first, second in _cycle_po_pairs(cycle)
        )

    unsafe: dict[tuple[str, int], str] = {}
    drop_cache: dict[tuple[str, int], list[list[bool]]] = {}

    def drop_matrix(thread_name: str, target: int) -> list[list[bool]]:
        key = (thread_name, target)
        if key not in drop_cache:
            drop_cache[key] = enforced_order(
                threads_by_name[thread_name],
                baseline,
                facts,
                drop_addr_dep_target=target,
            )
        return drop_cache[key]

    for cycle in cycles:
        if not cycle_dead(full) or cycle_dead(spec):
            continue
        # This cycle is kept dead only by address-resolution dependencies:
        # joint speculation would admit its outcome.  Attribute it to the
        # loads whose individual dependencies are load-bearing; if the
        # enforcement is jointly redundant, blame every involved target.
        description = " -> ".join(str(access) for access in cycle)
        responsible: set[tuple[str, int]] = set()
        involved: set[str] = {
            first.thread for first, _second in _cycle_po_pairs(cycle)
        }
        for thread_name in involved:
            for target in targets[thread_name]:
                matrices = dict(full)
                matrices[thread_name] = drop_matrix(thread_name, target)
                if not cycle_dead(matrices):
                    responsible.add((thread_name, target))
        if not responsible:
            responsible = {
                (thread_name, target)
                for thread_name in involved
                for target in targets[thread_name]
            }
        for key in responsible:
            unsafe.setdefault(
                key, f"speculating it revives the critical cycle {description}"
            )

    verdicts = []
    for tid, thread in enumerate(program.threads):
        for index, instruction in enumerate(thread.code):
            if not instruction.op_class.reads_memory():
                continue
            if facts.is_dead(tid, index):
                continue
            key = (thread.name, index)
            if key in unsafe:
                verdicts.append(
                    LoadSpeculationVerdict(thread.name, index, False, unsafe[key])
                )
            elif index in targets[thread.name] and truncated:
                verdicts.append(
                    LoadSpeculationVerdict(
                        thread.name,
                        index,
                        False,
                        "the critical-cycle search stopped at its cap before "
                        "its address-resolution dependency was cleared",
                    )
                )
            elif index in targets[thread.name]:
                verdicts.append(
                    LoadSpeculationVerdict(
                        thread.name,
                        index,
                        True,
                        "its address-resolution dependency is not load-bearing "
                        "in any critical cycle",
                    )
                )
            else:
                verdicts.append(
                    LoadSpeculationVerdict(
                        thread.name,
                        index,
                        True,
                        "no address-resolution dependency targets it",
                    )
                )
    return SpeculationReport(
        program_name=program.name,
        model_name=model.name,
        loads=tuple(verdicts),
        truncated=truncated,
    )
