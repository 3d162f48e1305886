"""The candidate-store computation (paper Section 4).

For each Load operation ``L``, ``candidates(L)`` is the set of all stores
``S =a L`` such that:

1. all prior Loads ``L' ⊑ S`` and Stores ``S' ⊑ S`` have been resolved,
2. ``S`` has not been overwritten: there is no ``S' =a L`` with
   ``S ⊑ S' ⊑ L``.

Because memory is initialized with store operations, ``candidates(L)`` is
never empty for an eligible load.  Note condition 1 also excludes any
store ``⊑``-after ``L`` itself (``L`` is an unresolved prior load of such
a store), so no explicit acyclicity check is needed.

Bypass models (TSO/PSO) additionally restrict *local* candidates to the
newest program-earlier same-address store — FIFO store-buffer forwarding
(paper §6: "a Load which obtains its value from a local Store must be
treated specially").

``stats`` (an ``EnumerationStats``) records how many visible stores the
scan examined.
"""

from __future__ import annotations

from repro.core.execution import Execution
from repro.core.node import Node


def candidate_stores(
    execution: Execution, load: Node, stats=None
) -> list[Node]:
    """All stores the given (eligible, unresolved) load may observe.

    Both conditions are read off the graph's reachability bitsets:
    condition 1 is ``anc[S] & unexecuted_memory == 0`` and condition 2 is
    ``desc[S] & visible & anc[L] == 0``, where ``visible`` is the mask of
    the visible same-address stores (the load excluded) and
    ``unexecuted_memory`` that of the memory operations not yet
    executed, both built once per call."""
    graph = execution.graph
    address = load.addr
    assert address is not None, "candidates require a resolved load address"
    load_nid = load.nid

    visible = []
    visible_mask = 0
    unexecuted_memory = 0
    for node in graph.nodes:
        if not node.executed:
            if node.is_memory:
                unexecuted_memory |= 1 << node.nid
            continue
        if not node.writes or node.nid == load_nid:
            continue
        if stats is not None:
            stats.candidates_scanned += 1
        if node.addr == address:
            visible.append(node)
            visible_mask |= 1 << node.nid

    anc = graph._anc
    desc = graph._desc
    # Condition 2 for every store at once: stores ⊑-before the load.
    overwriting = visible_mask & anc[load_nid]
    result = [
        store
        for store in visible
        if not anc[store.nid] & unexecuted_memory
        and not desc[store.nid] & overwriting
    ]

    if execution.model.store_load_bypass:
        result = _filter_bypass(execution, load, result)
    return result


def _filter_bypass(execution: Execution, load: Node, stores: list[Node]) -> list[Node]:
    """Store-buffer forwarding: only the *newest* program-earlier local
    same-address store can be forwarded; older buffered entries are
    shadowed.  Remote stores remain candidates (they model the load
    reading memory after the local stores drain)."""
    locals_ = execution.local_earlier_stores(load, load.addr)
    if not locals_:
        return stores
    newest_index = max(node.index for node in locals_)
    shadowed = {node.nid for node in locals_ if node.index < newest_index}
    return [store for store in stores if store.nid not in shadowed]
