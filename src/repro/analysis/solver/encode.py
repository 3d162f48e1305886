"""Program + model → CNF (the axioms of the paper as clause schemas).

The encoding covers the three ingredients the title of the paper names:

* **instruction reordering** — the skeleton ⊑ relation of the base
  behavior (reordering-table edges, fences, acquire/release, register
  and address dependencies, init edges) becomes one *unit clause per
  ordered pair* of memory operations;
* **store atomicity** — rules (a) and (b) of Section 3.3 become
  conditional clauses over reads-from and order variables, instantiated
  for pairs that are *statically certain* to alias;
* **reads-from** — every load picks exactly one candidate source store.

The CNF is a sound **relaxation**: every real execution satisfies every
clause (each schema below is only instantiated where the corresponding
machine step provably fires), but a satisfying assignment is not yet a
behavior.  :mod:`repro.analysis.solver.behaviors` closes the gap by
replaying each model through the exact :class:`Execution` machinery —
anything the relaxation over-admits (may-alias sources, rule (c),
dynamically-discovered same-address edges, value flow) is rejected
there and blocked.  Value consistency is therefore enforced exactly by
replay rather than approximated in CNF.

With ``with_selectors=True`` every axiom group is guarded by a fresh
selector variable so :mod:`repro.analysis.solver.explain` can solve
under assumptions and shrink failed-assumption sets to a minimal
violated-axiom core.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.solver.sat import SatSolver
from repro.analysis.static.dataflow import StaticFacts, compute_static_facts
from repro.analysis.static.dataflow import may_alias, must_alias
from repro.core.atomicity import close_store_atomicity
from repro.core.execution import Execution
from repro.core.graph import EdgeKind
from repro.core.node import Node
from repro.isa.instructions import OpClass, Rmw, RmwKind
from repro.isa.operands import Value
from repro.isa.program import Program
from repro.models.base import MemoryModel

#: Selector-group keys for the always-on structural clauses.
GROUP_PARTIAL_ORDER = "partial-order"
GROUP_RF_CHOICE = "rf-choice"
#: Selector-group keys for the model axioms (these can appear in cores).
GROUP_SOURCE_ORDER = "source-order"
GROUP_DRAIN = "store-buffer-drain"
GROUP_ATOMICITY_A = "atomicity-a"
GROUP_ATOMICITY_B = "atomicity-b"


@dataclass(frozen=True)
class ClauseGroup:
    """A named set of clauses, optionally guarded by a selector variable.

    Structural groups (the partial-order laws and the rf choice) are
    never guarded — a "core" that dropped transitivity would not explain
    anything.  Axiom groups and per-pair program-order units are guarded
    when the encoding is built for :func:`explain_forbidden`.
    """

    key: str  #: stable id, e.g. ``order:3->7`` or ``atomicity-a``
    description: str  #: human-readable axiom statement
    selector: int | None  #: guard variable (``None`` when always on)


@dataclass
class Encoding:
    """The CNF plus every map needed to interpret its models."""

    program: Program
    model: MemoryModel
    facts: StaticFacts
    base: Execution  #: the stabilized skeleton the variables refer to
    solver: SatSolver
    memory_nodes: list[Node]  #: skeleton memory operations (incl. init)
    loads: list[Node]  #: memory nodes that need a reads-from source
    order_var: dict[tuple[int, int], int]  #: (a, b) -> var for "a ⊑ b"
    rf_var: dict[tuple[int, int], int]  #: (load, store) -> var "L reads S"
    ext_var: dict[int, int]  #: load -> var "L reads a post-branch store"
    candidates: dict[int, list[int]]  #: load nid -> candidate store nids
    has_extension: bool  #: some thread is blocked on an unresolved branch
    groups: list[ClauseGroup] = field(default_factory=list)

    # -- model interpretation ------------------------------------------

    def rf_assignment(self) -> dict[int, int | None]:
        """Reads-from choice of the last SAT model: load nid -> store
        nid, or ``None`` for "a store beyond an unresolved branch"."""
        choice: dict[int, int | None] = {}
        for load in self.loads:
            nid = load.nid
            for store_nid in self.candidates[nid]:
                if self.solver.value(self.rf_var[(nid, store_nid)]):
                    choice[nid] = store_nid
                    break
            else:
                choice[nid] = None
        return choice

    def rf_literals(self, assignment: dict[int, int | None]) -> list[int]:
        """The positive rf/extension literals selecting ``assignment``."""
        literals = []
        for nid, store_nid in assignment.items():
            if store_nid is None:
                literals.append(self.ext_var[nid])
            else:
                literals.append(self.rf_var[(nid, store_nid)])
        return literals

    def block(self, assignment: dict[int, int | None]) -> None:
        """Forbid ``assignment`` (the AllSAT blocking clause)."""
        self.solver.add_clause([-lit for lit in self.rf_literals(assignment)])

    def selectors(self) -> list[int]:
        return [g.selector for g in self.groups if g.selector is not None]

    def group_of(self, selector: int) -> ClauseGroup:
        for group in self.groups:
            if group.selector == selector:
                return group
        raise KeyError(selector)


# ----------------------------------------------------------------------
# static address reasoning


def _address_set(node: Node, facts: StaticFacts) -> frozenset[Value] | None:
    """Addresses ``node`` may touch (``None`` = unknown, i.e. any)."""
    if node.addr is not None:
        return frozenset((node.addr,))
    if node.tid < 0 or node.static_index is None:
        return None
    return facts.address_set(node.tid, node.static_index)


def _may_alias(a: Node, b: Node, facts: StaticFacts) -> bool:
    return may_alias(_address_set(a, facts), _address_set(b, facts))


def _definitely_same(a: Node, b: Node, facts: StaticFacts) -> bool:
    return must_alias(_address_set(a, facts), _address_set(b, facts))


def _settle_alias_pairs(base: Execution, facts: StaticFacts) -> None:
    """Settle the skeleton's deferred ``x ≠ y`` pairs statically: a
    must-alias pair is ordered now, a never-alias pair is dropped (its
    §5.1 dependency stays: the machine still waits for the address to
    check, Figure 8's S7/L8), a may-alias pair waits for replay."""
    graph = base.graph
    pending = []
    ordered = False
    for earlier, later in base.pending_alias:
        first, second = graph.node(earlier), graph.node(later)
        if _definitely_same(first, second, facts):
            graph.add_edge(earlier, later, EdgeKind.PROGRAM)
            ordered = True
        elif _may_alias(first, second, facts):
            pending.append((earlier, later))
    base.pending_alias = pending
    if ordered:
        close_store_atomicity(graph)


def _definite_writer(node: Node) -> bool:
    """Does ``node`` certainly write memory when executed?  A failed CAS
    does not, so only plain stores (incl. init) and always-writing RMWs
    (exchange, fetch-add) may instantiate atomicity/drain schemas."""
    if node.op_class is OpClass.STORE:
        return True
    if node.op_class is OpClass.RMW and isinstance(node.instruction, Rmw):
        return node.instruction.kind is not RmwKind.CAS
    return False


def _short(node: Node) -> str:
    if node.is_init:
        return f"init {node.addr}={node.stored!r}"
    return f"[T{node.tid}.{node.index}] {node.instruction}"


# ----------------------------------------------------------------------
# the encoder


def encode_program(
    program: Program,
    model: MemoryModel,
    *,
    max_nodes_per_thread: int = 64,
    facts: StaticFacts | None = None,
    with_selectors: bool = False,
) -> Encoding:
    """Build the CNF for ``program`` under ``model``.

    Raises :class:`~repro.errors.EnumerationError` if the skeleton
    itself exceeds the node budget (unbounded loop) — the same contract
    as :func:`~repro.core.enumerate.enumerate_behaviors`.
    """
    if facts is None:
        facts = compute_static_facts(program)
    base = Execution.initial(program, model, max_nodes_per_thread)
    _settle_alias_pairs(base, facts)
    solver = SatSolver()
    graph = base.graph
    memory_nodes = [node for node in graph.nodes if node.is_memory]
    loads = [node for node in memory_nodes if node.reads_memory]
    stores = [node for node in memory_nodes if node.writes_memory]
    has_extension = any(not state.halted for state in base.threads)

    encoding = Encoding(
        program=program,
        model=model,
        facts=facts,
        base=base,
        solver=solver,
        memory_nodes=memory_nodes,
        loads=loads,
        order_var={},
        rf_var={},
        ext_var={},
        candidates={},
        has_extension=has_extension,
    )

    def group(key: str, description: str, *, guarded: bool) -> ClauseGroup:
        selector = solver.new_var() if (guarded and with_selectors) else None
        made = ClauseGroup(key, description, selector)
        encoding.groups.append(made)
        return made

    def add(made: ClauseGroup, lits: list[int]) -> None:
        if made.selector is not None:
            solver.add_clause([-made.selector] + lits)
        else:
            solver.add_clause(lits)

    # -- variables ------------------------------------------------------
    for a in memory_nodes:
        for b in memory_nodes:
            if a.nid != b.nid:
                encoding.order_var[(a.nid, b.nid)] = solver.new_var()
    for load in loads:
        chosen: list[int] = []
        for store in stores:
            if store.nid == load.nid:
                continue  # an RMW never reads its own write
            if graph.before(load.nid, store.nid):
                continue  # a source ⊑-after the load is a cycle outright
            if not _may_alias(load, store, facts):
                continue
            chosen.append(store.nid)
            encoding.rf_var[(load.nid, store.nid)] = solver.new_var()
        encoding.candidates[load.nid] = chosen
        if has_extension:
            encoding.ext_var[load.nid] = solver.new_var()

    order = encoding.order_var

    # -- group 1: skeleton program order (one guarded unit per pair) ----
    for a in memory_nodes:
        for b in memory_nodes:
            if a.nid == b.nid or not graph.before(a.nid, b.nid):
                continue
            path = graph.find_path(a.nid, b.nid)
            kinds = ", ".join(
                dict.fromkeys(kind.pretty() for _, _, kind in (path or []))
            )
            made = group(
                f"order:{a.nid}->{b.nid}",
                f"{_short(a)} ⊑ {_short(b)} ({kinds or 'program order'})",
                guarded=True,
            )
            add(made, [order[(a.nid, b.nid)]])

    # The structural groups below are never guarded, so their clauses go
    # straight to the solver: transitivity alone is cubic in the memory
    # operations.
    add_clause = solver.add_clause

    # -- group 2: ⊑ is a strict partial order (structural, never guarded)
    group(GROUP_PARTIAL_ORDER, "⊑ is a strict partial order", guarded=False)
    nids = [node.nid for node in memory_nodes]
    #: row i, column j: the var of "nids[i] ⊑ nids[j]" (0 on the diagonal)
    rows = [[order[(a, b)] if a != b else 0 for b in nids] for a in nids]
    for i, row in enumerate(rows):
        for j in range(i + 1, len(nids)):
            add_clause([-row[j], -rows[j][i]])
    # Transitivity, (a ⊑ b) ∧ (b ⊑ c) → (a ⊑ c).  A clause holding a
    # root-true literal is a no-op for add_clause, so it is not built.
    # Root values are only ever added, so masks of the columns known
    # true or false now stay valid for skipping; whatever they miss
    # add_clause drops itself, and the clause database comes out the
    # same.  Each mask also covers its own diagonal column.
    true_columns = []
    false_columns = []
    for i, row in enumerate(rows):
        true_mask = false_mask = 1 << i
        for j, var in enumerate(row):
            if j != i:
                value = solver.fixed(var)
                if value:
                    true_mask |= 1 << j
                elif value is False:
                    false_mask |= 1 << j
        true_columns.append(true_mask)
        false_columns.append(false_mask)
    every_column = (1 << len(nids)) - 1
    for i, row_a in enumerate(rows):
        for j, row_b in enumerate(rows):
            not_a_b = -row_a[j]
            if j == i or solver.fixed(not_a_b):
                continue  # every clause of this (a, b) is satisfied
            open_columns = every_column & ~(true_columns[i] | false_columns[j])
            while open_columns:  # ascending c, as a scan over nids would
                low = open_columns & -open_columns
                open_columns ^= low
                k = low.bit_length() - 1
                add_clause([not_a_b, -row_b[k], row_a[k]])

    # -- group 3: every load reads exactly one source (structural) ------
    group(GROUP_RF_CHOICE, "every load reads exactly one store", guarded=False)
    for load in loads:
        options = [encoding.rf_var[(load.nid, s)] for s in encoding.candidates[load.nid]]
        if has_extension:
            options.append(encoding.ext_var[load.nid])
        add_clause(options)
        for i, first in enumerate(options):
            for second in options[i + 1 :]:
                add_clause([-first, -second])

    # -- group 4: a load is ⊑-after its source (unless forwarded) -------
    def forwardable(load: Node, store: Node) -> bool:
        """May resolving ``load`` from ``store`` be a store-buffer
        forward (grey BYPASS edge, no ⊑)?  Mirrors ``is_local_forward``
        in :meth:`Execution.resolve_load`."""
        return (
            model.store_load_bypass
            and load.op_class is OpClass.LOAD
            and store.tid == load.tid
            and store.index < load.index
        )

    source = group(
        GROUP_SOURCE_ORDER,
        "a load is ordered after the store it reads (source edge)",
        guarded=True,
    )
    for (load_nid, store_nid), var in encoding.rf_var.items():
        load, store = graph.node(load_nid), graph.node(store_nid)
        if not forwardable(load, store):
            add(source, [-var, order[(store_nid, load_nid)]])

    # -- group 5: reading past the buffer drains it (bypass models) ----
    if model.store_load_bypass:
        drain = group(
            GROUP_DRAIN,
            "a load that bypasses the store buffer drains earlier local "
            "stores to its address",
            guarded=True,
        )
        for load in loads:
            if load.op_class is not OpClass.LOAD:
                continue
            earlier = [
                store
                for store in stores
                if store.tid == load.tid
                and store.index < load.index
                and _definite_writer(store)
                and _definitely_same(store, load, facts)
            ]
            if not earlier:
                continue
            for local in earlier:
                for store_nid in encoding.candidates[load.nid]:
                    store = graph.node(store_nid)
                    if store_nid != local.nid and not forwardable(load, store):
                        add(
                            drain,
                            [
                                -encoding.rf_var[(load.nid, store_nid)],
                                order[(local.nid, load.nid)],
                            ],
                        )
                if load.nid in encoding.ext_var:
                    add(drain, [-encoding.ext_var[load.nid], order[(local.nid, load.nid)]])

    # -- groups 6 and 7: store atomicity rules (a) and (b) --------------
    rule_a = group(
        GROUP_ATOMICITY_A,
        "rule (a): a same-address store ⊑-before a load is ⊑-before the "
        "load's source",
        guarded=True,
    )
    rule_b = group(
        GROUP_ATOMICITY_B,
        "rule (b): a same-address store ⊑-after a load's source is "
        "⊑-after the load",
        guarded=True,
    )
    for (load_nid, src_nid), var in encoding.rf_var.items():
        load = graph.node(load_nid)
        for store in stores:
            if store.nid in (load_nid, src_nid):
                continue
            if not _definite_writer(store) or not _definitely_same(store, load, facts):
                continue
            add(rule_a, [-var, -order[(store.nid, load_nid)], order[(store.nid, src_nid)]])
            add(rule_b, [-var, -order[(src_nid, store.nid)], order[(load_nid, store.nid)]])

    return encoding


__all__ = [
    "ClauseGroup",
    "Encoding",
    "GROUP_ATOMICITY_A",
    "GROUP_ATOMICITY_B",
    "GROUP_DRAIN",
    "GROUP_PARTIAL_ORDER",
    "GROUP_RF_CHOICE",
    "GROUP_SOURCE_ORDER",
    "encode_program",
]
