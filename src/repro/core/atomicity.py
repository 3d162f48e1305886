"""The Store Atomicity property (paper Section 3.3).

Provides the closure engine that inserts the "dotted" derived edges
required by the three rules, and a declarative checker that decides
whether an arbitrary execution graph obeys Store Atomicity.

Rules (for resolved loads ``L`` with ``s = source(L)``):

a. *Predecessor stores of a Load are ordered before its source*:
   ``S =a L ∧ S ⊑ L ∧ S ≠ s  ⇒  S ⊑ s``

b. *Successor stores of an observed store are ordered after its
   observers*: ``S =a L ∧ s ⊑ S  ⇒  L ⊑ S``

c. *Mutual ancestors of loads are ordered before mutual successors of the
   distinct stores they observe*:
   ``L =a L' ∧ A ⊑ L ∧ A ⊑ L' ∧ s ≠ s' ∧ s ⊑ B ∧ s' ⊑ B  ⇒  A ⊑ B``

The closure is iterated to a fixpoint — Figure 7 shows a case where one
inserted edge exposes the need for another.  If a rule requires an edge
that would create a cycle, the execution is inconsistent and
:class:`~repro.errors.AtomicityViolation` is raised (in speculative
executions the caller treats this as a rollback).
"""

from __future__ import annotations

from repro.errors import AtomicityViolation, CycleError
from repro.core.graph import EdgeKind, ExecutionGraph, iter_bits
from repro.core.node import Node
from repro.isa.operands import Value


def _resolved_loads(graph: ExecutionGraph) -> list[Node]:
    return [
        node
        for node in graph.nodes
        if node.reads_memory and node.executed and node.source is not None
    ]


def _visible_stores(graph: ExecutionGraph) -> list[Node]:
    return [node for node in graph.nodes if node.is_visible_store]


def close_store_atomicity(graph: ExecutionGraph, include_rule_c: bool = True) -> int:
    """Insert all edges required by rules a, b, c, iterating to a fixpoint.

    Returns the number of new ordering relations added.  Raises
    :class:`AtomicityViolation` if the rules are unsatisfiable (an edge
    insertion would create a cycle).

    ``include_rule_c=False`` applies only rules a and b — the weaker
    check performed by TSOtool (§7: "They do not formalize or check
    property c"), provided so the trace checker can reproduce exactly
    that gap.

    Rules a and b are evaluated as masks over the graph's reachability
    bitsets.  For a load ``L`` with source ``s``, the stores that still
    need an edge are ``anc(L) & ~anc(s)`` (rule a) and
    ``desc(s) & ~desc(L)`` (rule b), each restricted to the visible
    stores at ``L``'s address.  The stores are visited in nid order,
    rule a before rule b, and both masks are re-read after every
    insertion, so the edges are recorded in exactly the order of a
    pairwise load × store scan; stores outside both masks would be
    no-ops in that scan and are skipped.  The engine owns every node id
    here, so the masks are read without the public API's bounds checks.
    """
    nodes = graph.nodes
    anc = graph._anc
    desc = graph._desc
    # Closing only adds edges: the resolved loads and the visible stores
    # stay the same for every round.
    loads: list[tuple[Node, int]] = []  # (load, source nid)
    stores_at: dict[Value | None, int] = {}  # address -> visible-store mask
    for node in nodes:
        if node.executed:
            if node.source is not None and node.reads_memory:
                loads.append((node, node.source))
            if node.writes:
                stores_at[node.addr] = stores_at.get(node.addr, 0) | (1 << node.nid)
    rule_c_pairs: list[tuple[Node, int, Node, int]] = []
    if include_rule_c:
        rule_c_pairs = [
            (load, src, other, other_src)
            for i, (load, src) in enumerate(loads)
            for other, other_src in loads[i + 1 :]
            if load.addr == other.addr and src != other_src
        ]
    total_added = 0
    changed = True
    while changed:
        changed = False
        for load, src in loads:
            lid = load.nid
            remaining = stores_at.get(load.addr, 0) & ~((1 << src) | (1 << lid))
            while remaining:
                # Rule a: S ⊑ L ⇒ S ⊑ source(L);  rule b: source(L) ⊑ S ⇒ L ⊑ S
                due = ((anc[lid] & ~anc[src]) | (desc[src] & ~desc[lid])) & remaining
                if not due:
                    break
                low = due & -due
                remaining &= ~((low << 1) - 1)
                store = low.bit_length() - 1
                try:
                    if anc[lid] & ~anc[src] & low:
                        if graph.add_edge(store, src, EdgeKind.ATOMICITY):
                            changed = True
                            total_added += 1
                    if desc[src] & ~desc[lid] & low:
                        if graph.add_edge(lid, store, EdgeKind.ATOMICITY):
                            changed = True
                            total_added += 1
                except CycleError as exc:
                    raise AtomicityViolation(
                        f"store atomicity is unsatisfiable: load {load.describe()} with "
                        f"source n{src} conflicts with store {nodes[store].describe()}"
                    ) from exc

        # Rule c: over pairs of same-address loads with distinct sources.
        for load, src, other, other_src in rule_c_pairs:
            common_anc = anc[load.nid] & anc[other.nid]
            common_desc = desc[src] & desc[other_src]
            if not common_anc or not common_desc:
                continue
            for a in iter_bits(common_anc):
                for b in iter_bits(common_desc & ~desc[a] & ~(1 << a)):
                    if (desc[a] >> b) & 1:
                        continue
                    try:
                        if graph.add_edge(a, b, EdgeKind.ATOMICITY):
                            changed = True
                            total_added += 1
                    except CycleError as exc:
                        raise AtomicityViolation(
                            f"rule c is unsatisfiable between loads n{load.nid} and "
                            f"n{other.nid} (common ancestor n{a}, common successor n{b})"
                        ) from exc
    return total_added


def check_store_atomicity(graph: ExecutionGraph) -> list[str]:
    """Declaratively check an execution graph against Store Atomicity.

    Returns a list of human-readable violations (empty when the graph is
    store-atomic).  Checks the three base serializability facts from
    Section 3.3 plus rules a, b, c as *already-satisfied* implications —
    it does not modify the graph.
    """
    problems: list[str] = []
    loads = _resolved_loads(graph)
    stores = _visible_stores(graph)

    for load in loads:
        src = load.source
        assert src is not None
        source_node = graph.node(src)
        if not source_node.is_visible_store:
            problems.append(f"load n{load.nid} observes n{src}, which is not a visible store")
            continue
        if source_node.addr != load.addr:
            problems.append(
                f"load n{load.nid} (addr {load.addr!r}) observes store n{src} "
                f"to different address {source_node.addr!r}"
            )
        bypass = (src, load.nid) in graph.bypass_edges()
        if not bypass and not graph.before(src, load.nid):
            problems.append(f"source n{src} is not ordered before its load n{load.nid}")
        for store in stores:
            if store.nid in (src, load.nid) or store.addr != load.addr:
                continue
            if graph.before(src, store.nid) and graph.before(store.nid, load.nid):
                problems.append(
                    f"load n{load.nid} observes n{src}, overwritten by intervening n{store.nid}"
                )
            if graph.before(store.nid, load.nid) and not graph.before(store.nid, src):
                problems.append(
                    f"rule a unsatisfied: n{store.nid} ⊑ n{load.nid} but n{store.nid} ⋢ n{src}"
                )
            if graph.before(src, store.nid) and not graph.before(load.nid, store.nid):
                problems.append(
                    f"rule b unsatisfied: n{src} ⊑ n{store.nid} but n{load.nid} ⋢ n{store.nid}"
                )

    for i, load in enumerate(loads):
        for other in loads[i + 1 :]:
            if load.addr != other.addr or load.source == other.source:
                continue
            common_anc = graph.ancestors_mask(load.nid) & graph.ancestors_mask(other.nid)
            common_desc = graph.descendants_mask(load.source) & graph.descendants_mask(
                other.source
            )
            for a in iter_bits(common_anc):
                for b in iter_bits(common_desc & ~graph.descendants_mask(a)):
                    if a != b:
                        problems.append(
                            f"rule c unsatisfied: n{a} ⋢ n{b} for load pair "
                            f"(n{load.nid}, n{other.nid})"
                        )
    return problems
