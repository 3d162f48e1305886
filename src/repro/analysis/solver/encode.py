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
there.  Value consistency is therefore enforced exactly by
replay rather than approximated in CNF.

**Order variables only where an axiom orders.**  Every clause of the
axiom groups (source edge, store-buffer drain, atomicity rules (a) and
(b)) names accesses to one address: a load, its candidate sources and
the same-address stores the rules instantiate.  Those are the *order
nodes*; "a ⊑ b" gets a variable, a skeleton unit and the partial-order
laws only for order nodes a, b.  This loses no behavior and admits none:
a model over the order nodes extends to every memory node by closing its
order together with the skeleton ⊑, because a path through a dropped
node leaves and re-enters the order nodes along skeleton edges, and
``graph.before`` is reachability, so that detour is already a unit
between order nodes.  The closure therefore adds no pair among order
nodes and no cycle (a cycle with no order node would be a skeleton
cycle), and the satisfying reads-from assignments are the same set.

Static facts are computed on first need (:attr:`Encoding.facts`): only
for an access whose address the skeleton has not computed, and by the
explainer.  Most straight-line programs never compute them.

With ``with_selectors=True`` every axiom group is guarded by a fresh
selector variable so :mod:`repro.analysis.solver.explain` can solve
under assumptions and shrink failed-assumption sets to a minimal
violated-axiom core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    base: Execution  #: the stabilized skeleton the variables refer to
    solver: SatSolver
    #: the order nodes: skeleton memory operations (incl. init) that
    #: some axiom orders, in node order
    memory_nodes: list[Node] = field(default_factory=list)
    #: memory nodes that need a reads-from source
    loads: list[Node] = field(default_factory=list)
    #: (a, b) -> var for "a ⊑ b", over the order nodes
    order_var: dict[tuple[int, int], int] = field(default_factory=dict)
    #: (load, store) -> var "L reads S"
    rf_var: dict[tuple[int, int], int] = field(default_factory=dict)
    #: load -> var "L reads a post-branch store"
    ext_var: dict[int, int] = field(default_factory=dict)
    #: load nid -> candidate store nids
    candidates: dict[int, list[int]] = field(default_factory=dict)
    has_extension: bool = False  #: some thread is blocked on an unresolved branch
    groups: list[ClauseGroup] = field(default_factory=list)

    @cached_property
    def facts(self) -> StaticFacts:
        """The program's static facts, computed the first time they are
        read (assigning ``facts`` supplies them instead)."""
        return compute_static_facts(self.program)

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

    def rf_options(self, load_nid: int) -> list[int]:
        """The literals of ``load_nid``'s reads-from choice, exactly one
        of which holds: one per candidate source, then "reads a
        post-branch store" when some thread is blocked on a branch."""
        options = [self.rf_var[(load_nid, store)] for store in self.candidates[load_nid]]
        if self.has_extension:
            options.append(self.ext_var[load_nid])
        return options

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
        """Forbid ``assignment`` (the blocking clause of
        ``explain_forbidden``'s search for a witness)."""
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


def _address_set(node: Node, encoding: Encoding) -> frozenset[Value] | None:
    """Addresses ``node`` may touch (``None`` = unknown, i.e. any).  Only
    an address the skeleton has not computed reads the static facts."""
    if node.addr is not None:
        return frozenset((node.addr,))
    if node.tid < 0 or node.static_index is None:
        return None
    return encoding.facts.address_set(node.tid, node.static_index)


def _may_alias(a: Node, b: Node, encoding: Encoding) -> bool:
    return may_alias(_address_set(a, encoding), _address_set(b, encoding))


def _definitely_same(a: Node, b: Node, encoding: Encoding) -> bool:
    return must_alias(_address_set(a, encoding), _address_set(b, encoding))


def _settle_alias_pairs(encoding: Encoding) -> None:
    """Settle the skeleton's deferred ``x ≠ y`` pairs statically: a
    must-alias pair is ordered now, a never-alias pair is dropped (its
    §5.1 dependency stays: the machine still waits for the address to
    check, Figure 8's S7/L8), a may-alias pair waits for replay."""
    base = encoding.base
    graph = base.graph
    pending = []
    ordered = False
    for earlier, later in base.pending_alias:
        first, second = graph.node(earlier), graph.node(later)
        if _definitely_same(first, second, encoding):
            graph.add_edge(earlier, later, EdgeKind.PROGRAM)
            ordered = True
        elif _may_alias(first, second, encoding):
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

#: One clause of groups 4-7, before its variables exist: (group key,
#: (load, source; ``None`` for a post-branch store), premise pair or
#: ``None``, conclusion pair) reads "if the load reads that source and
#: the premise pair is ordered, the conclusion pair is ordered".
_Schema = tuple[str, tuple[int, int | None], tuple[int, int] | None, tuple[int, int]]


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
    base = Execution.initial(program, model, max_nodes_per_thread)
    solver = SatSolver()
    encoding = Encoding(program=program, model=model, base=base, solver=solver)
    if facts is not None:
        encoding.facts = facts
    _settle_alias_pairs(encoding)
    graph = base.graph
    memory = [node for node in graph.nodes if node.is_memory]
    loads = encoding.loads = [node for node in memory if node.reads_memory]
    stores = [node for node in memory if node.writes_memory]
    has_extension = encoding.has_extension = any(
        not state.halted for state in base.threads
    )
    candidates = encoding.candidates
    for load in loads:
        candidates[load.nid] = [
            store.nid
            for store in stores
            # an RMW never reads its own write; a source ⊑-after the
            # load is a cycle outright
            if store.nid != load.nid
            and not graph.before(load.nid, store.nid)
            and _may_alias(load, store, encoding)
        ]

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

    # -- the axiom schemas of groups 4-7, before any variable -----------
    schemas: list[_Schema] = []
    # group 4: a load is ⊑-after its source (unless forwarded)
    for load in loads:
        for store_nid in candidates[load.nid]:
            if not forwardable(load, graph.node(store_nid)):
                schemas.append(
                    (GROUP_SOURCE_ORDER, (load.nid, store_nid), None, (store_nid, load.nid))
                )
    # group 5: reading past the buffer drains it (bypass models)
    if model.store_load_bypass:
        for load in loads:
            if load.op_class is not OpClass.LOAD:
                continue
            for local in stores:
                if not (
                    local.tid == load.tid
                    and local.index < load.index
                    and _definite_writer(local)
                    and _definitely_same(local, load, encoding)
                ):
                    continue
                drained = (local.nid, load.nid)
                for store_nid in candidates[load.nid]:
                    if store_nid != local.nid and not forwardable(
                        load, graph.node(store_nid)
                    ):
                        schemas.append((GROUP_DRAIN, (load.nid, store_nid), None, drained))
                if has_extension:
                    schemas.append((GROUP_DRAIN, (load.nid, None), None, drained))
    # groups 6 and 7: store atomicity rules (a) and (b)
    for load in loads:
        same_address = [
            store.nid
            for store in stores
            if _definite_writer(store) and _definitely_same(store, load, encoding)
        ]
        for src_nid in candidates[load.nid]:
            choice = (load.nid, src_nid)
            for store_nid in same_address:
                if store_nid in choice:
                    continue
                schemas.append(
                    (GROUP_ATOMICITY_A, choice, (store_nid, load.nid), (store_nid, src_nid))
                )
                schemas.append(
                    (GROUP_ATOMICITY_B, choice, (src_nid, store_nid), (load.nid, store_nid))
                )

    # -- variables: "a ⊑ b" over the order nodes only -------------------
    ordered = {nid for *_, premise, conclusion in schemas for nid in (premise or ()) + conclusion}
    memory_nodes = encoding.memory_nodes = [node for node in memory if node.nid in ordered]
    order = encoding.order_var
    for a in memory_nodes:
        for b in memory_nodes:
            if a.nid != b.nid:
                order[(a.nid, b.nid)] = solver.new_var()
    for load in loads:
        for store_nid in candidates[load.nid]:
            encoding.rf_var[(load.nid, store_nid)] = solver.new_var()
        if has_extension:
            encoding.ext_var[load.nid] = solver.new_var()

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

    # Clauses no selector guards go straight to the solver: transitivity
    # alone is cubic in the order nodes.
    add_clause = solver.add_clause

    # -- group 1: skeleton program order (one guarded unit per pair) ----
    for a in memory_nodes:
        for b in memory_nodes:
            if a.nid == b.nid or not graph.before(a.nid, b.nid):
                continue
            if not with_selectors:
                add_clause([order[(a.nid, b.nid)]])
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
        options = encoding.rf_options(load.nid)
        add_clause(options)
        for i, first in enumerate(options):
            for second in options[i + 1 :]:
                add_clause([-first, -second])

    # -- groups 4-7: the axiom schemas collected above ------------------
    axioms = {
        GROUP_SOURCE_ORDER: group(
            GROUP_SOURCE_ORDER,
            "a load is ordered after the store it reads (source edge)",
            guarded=True,
        )
    }
    if model.store_load_bypass:
        axioms[GROUP_DRAIN] = group(
            GROUP_DRAIN,
            "a load that bypasses the store buffer drains earlier local "
            "stores to its address",
            guarded=True,
        )
    axioms[GROUP_ATOMICITY_A] = group(
        GROUP_ATOMICITY_A,
        "rule (a): a same-address store ⊑-before a load is ⊑-before the "
        "load's source",
        guarded=True,
    )
    axioms[GROUP_ATOMICITY_B] = group(
        GROUP_ATOMICITY_B,
        "rule (b): a same-address store ⊑-after a load's source is "
        "⊑-after the load",
        guarded=True,
    )
    for key, (load_nid, store_nid), premise, conclusion in schemas:
        if store_nid is None:
            reads = encoding.ext_var[load_nid]
        else:
            reads = encoding.rf_var[(load_nid, store_nid)]
        if premise is None:
            add(axioms[key], [-reads, order[conclusion]])
        else:
            add(axioms[key], [-reads, -order[premise], order[conclusion]])

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
