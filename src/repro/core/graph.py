"""The partially ordered execution graph (the paper's central object).

An execution is a DAG whose nodes are dynamic instructions and whose edges
carry kinds mirroring the paper's Figure 2:

* solid local-ordering edges (``PROGRAM``, ``DATA``, ``ADDR_DEP``,
  ``SAME_ADDR``, ``INIT``) — the thread-local relation ``≺``,
* ringed observation edges (``SOURCE``) — ``source(L) ⊑ L``,
* dotted derived edges (``ATOMICITY``) — inserted by the Store Atomicity
  closure,
* user-inserted edges (``IMPOSED``) — Section 3.3's "legal to introduce
  additional edges", used to model conservative real systems,
* grey ``BYPASS`` edges (Section 6, TSO) — recorded for rendering but
  **excluded** from the ``⊑`` ordering.

Reachability (the ``⊑`` relation) is maintained incrementally with
per-node ancestor/descendant bitsets stored as Python ints, giving cheap
edge insertion with immediate cycle detection.  The Store Atomicity
closure (:mod:`repro.core.atomicity`) reads those bitsets directly:
rules a and b become per-load mask expressions over the visible stores
at the load's address, and a load with no candidate stores is skipped
exactly.  Engine code reads ``_anc``/``_desc``/``nodes`` without bounds
checks; the public query methods keep them.
"""

from __future__ import annotations

import enum
from typing import Iterator

from repro.errors import CycleError, GraphError
from repro.core.node import Node


class EdgeKind(enum.IntFlag):
    """Edge kinds; a single (u, v) pair may carry several."""

    PROGRAM = enum.auto()  #: local reordering constraint ("never reorder")
    DATA = enum.auto()  #: register dataflow dependency
    ADDR_DEP = enum.auto()  #: non-speculative alias-resolution dependency (§5.1)
    SAME_ADDR = enum.auto()  #: deferred same-address ordering, inserted on resolution
    INIT = enum.auto()  #: init stores precede all thread operations
    SOURCE = enum.auto()  #: observation edge source(L) -> L
    ATOMICITY = enum.auto()  #: derived Store Atomicity edge (dotted, §3.3)
    IMPOSED = enum.auto()  #: extra edge imposed by a conservative system (§4.2)
    BYPASS = enum.auto()  #: TSO grey edge — NOT part of the ⊑ ordering (§6)

    def pretty(self) -> str:
        return "|".join(kind.name.lower() for kind in EdgeKind if kind & self)


#: Edge kinds that participate in the ⊑ ("is before") ordering.
ORDERING_KINDS = (
    EdgeKind.PROGRAM
    | EdgeKind.DATA
    | EdgeKind.ADDR_DEP
    | EdgeKind.SAME_ADDR
    | EdgeKind.INIT
    | EdgeKind.SOURCE
    | EdgeKind.ATOMICITY
    | EdgeKind.IMPOSED
)


def iter_bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def remap_mask(mask: int, rank: list[int]) -> int:
    """Permute a bitset: bit ``b`` of ``mask`` becomes bit ``rank[b]``.

    Used to express per-node reachability bitsets in a canonical node
    order, so behaviors can be compared without materializing the full
    ⊑ relation as a set of pairs."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << rank[low.bit_length() - 1]
        mask ^= low
    return out


class ExecutionGraph:
    """A growable DAG with typed edges and incremental reachability.

    The public reachability queries express the paper's ``⊑`` relation
    (strict: a node is not before itself).
    """

    __slots__ = ("nodes", "_anc", "_desc", "_succ", "_succ_shared", "_bypass")

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._anc: list[int] = []  # strict-ancestor bitsets
        self._desc: list[int] = []  # strict-descendant bitsets
        self._succ: list[dict[int, EdgeKind]] = []  # explicit edges u -> {v: kinds}
        self._succ_shared: int = 0  # bitmask: _succ dicts shared with a COW parent
        self._bypass: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # construction

    def add_node(self, node: Node) -> int:
        """Insert ``node``; its ``nid`` must equal the next free index."""
        if node.nid != len(self.nodes):
            raise GraphError(f"node id {node.nid} does not match next index {len(self.nodes)}")
        self.nodes.append(node)
        self._anc.append(0)
        self._desc.append(0)
        self._succ.append({})
        return node.nid

    def add_edge(self, u: int, v: int, kind: EdgeKind) -> bool:
        """Insert an edge ``u -> v`` of ``kind``.

        Returns True if the edge added a *new* ordering (u was not already
        before v), False if the ordering was already implied.  Raises
        :class:`CycleError` if the edge would create a cycle — the caller
        decides whether that is a speculation failure (discard the
        behavior) or a hard inconsistency.

        ``BYPASS`` edges are recorded but never affect reachability.
        """
        self._check(u)
        self._check(v)
        if kind is EdgeKind.BYPASS:
            self._bypass.add((u, v))
            return False
        if u == v:
            raise CycleError(u, v)
        if self._before(v, u):
            raise CycleError(u, v)

        targets = self._own_succ(u)
        existing = targets.get(v)
        targets[v] = (existing | kind) if existing is not None else kind
        if self._before(u, v):
            return False

        anc_gain = self._anc[u] | (1 << u)
        desc_gain = self._desc[v] | (1 << v)
        for w in iter_bits(desc_gain):
            self._anc[w] |= anc_gain
        for w in iter_bits(anc_gain):
            self._desc[w] |= desc_gain
        return True

    def _own_succ(self, u: int) -> dict[int, EdgeKind]:
        """The successor dict of ``u``, privately owned: a dict shared
        with a copy-on-write parent is cloned before the first write."""
        if (self._succ_shared >> u) & 1:
            self._succ[u] = dict(self._succ[u])
            self._succ_shared &= ~(1 << u)
        return self._succ[u]

    def _check(self, nid: int) -> None:
        if not 0 <= nid < len(self.nodes):
            raise GraphError(f"unknown node id {nid}")

    # ------------------------------------------------------------------
    # queries

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, nid: int) -> Node:
        self._check(nid)
        return self.nodes[nid]

    def _before(self, u: int, v: int) -> bool:
        return bool((self._anc[v] >> u) & 1)

    def before(self, u: int, v: int) -> bool:
        """True iff ``u ⊑ v`` (strictly before in every serialization)."""
        self._check(u)
        self._check(v)
        return self._before(u, v)

    def ordered(self, u: int, v: int) -> bool:
        """True iff u and v are comparable under ⊑ (either direction)."""
        return self.before(u, v) or self.before(v, u)

    def ancestors_mask(self, nid: int) -> int:
        self._check(nid)
        return self._anc[nid]

    def descendants_mask(self, nid: int) -> int:
        self._check(nid)
        return self._desc[nid]

    def ancestors(self, nid: int) -> list[int]:
        return list(iter_bits(self.ancestors_mask(nid)))

    def descendants(self, nid: int) -> list[int]:
        return list(iter_bits(self.descendants_mask(nid)))

    def edges(self) -> Iterator[tuple[int, int, EdgeKind]]:
        """All explicit edges with their kind masks (bypass edges included,
        reported with kind ``BYPASS``)."""
        for u, targets in enumerate(self._succ):
            for v, kinds in targets.items():
                yield (u, v, kinds)
        for u, v in sorted(self._bypass):
            yield (u, v, EdgeKind.BYPASS)

    def edge_kinds(self, u: int, v: int) -> EdgeKind | None:
        """The kind mask of the explicit edge u -> v, or None."""
        self._check(u)
        self._check(v)
        kinds = self._succ[u].get(v)
        if (u, v) in self._bypass:
            kinds = (kinds | EdgeKind.BYPASS) if kinds is not None else EdgeKind.BYPASS
        return kinds

    def bypass_edges(self) -> set[tuple[int, int]]:
        return set(self._bypass)

    def unordered_pairs(self) -> Iterator[tuple[int, int]]:
        """All pairs (u, v), u < v, not comparable under ⊑."""
        for v in range(len(self.nodes)):
            for u in range(v):
                if not self._before(u, v) and not self._before(v, u):
                    yield (u, v)

    def topological_order(self) -> list[int]:
        """One linear extension of ⊑ (by ancestor count, ties by nid)."""
        return sorted(range(len(self.nodes)), key=lambda n: (self._anc[n].bit_count(), n))

    def find_path(self, u: int, v: int) -> list[tuple[int, int, EdgeKind]] | None:
        """A shortest explicit-edge path witnessing ``u ⊑ v``, as a list of
        (from, to, kinds) steps — used to *explain* orderings and the
        cycles behind forbidden behaviors.  None when u ⋢ v."""
        self._check(u)
        self._check(v)
        if not self._before(u, v):
            return None
        parent: dict[int, tuple[int, EdgeKind]] = {}
        frontier = [u]
        visited = {u}
        while frontier:
            next_frontier = []
            for node in frontier:
                for target, kinds in self._succ[node].items():
                    if not (kinds & ORDERING_KINDS) or target in visited:
                        continue
                    visited.add(target)
                    parent[target] = (node, kinds)
                    if target == v:
                        steps: list[tuple[int, int, EdgeKind]] = []
                        current = v
                        while current != u:
                            previous, kinds_ = parent[current]
                            steps.append((previous, current, kinds_))
                            current = previous
                        return list(reversed(steps))
                    next_frontier.append(target)
            frontier = next_frontier
        return None  # pragma: no cover - before() guaranteed a path exists

    def reachability_pairs(self) -> frozenset[tuple[int, int]]:
        """The full ⊑ relation as a set of (before, after) pairs."""
        pairs = set()
        for v in range(len(self.nodes)):
            for u in iter_bits(self._anc[v]):
                pairs.add((u, v))
        return frozenset(pairs)

    # ------------------------------------------------------------------
    # copying

    def copy(self) -> "ExecutionGraph":
        """A fully independent deep copy: every node is cloned and every
        successor dict owned.  External callers may freely mutate node
        attributes on the result."""
        dup = ExecutionGraph.__new__(ExecutionGraph)
        dup.nodes = [node.clone() for node in self.nodes]
        dup._anc = list(self._anc)
        dup._desc = list(self._desc)
        dup._succ = [dict(targets) for targets in self._succ]
        dup._succ_shared = 0
        dup._bypass = set(self._bypass)
        return dup

    def copy_on_write(self) -> "ExecutionGraph":
        """The enumeration hot-path copy: structure is shared until first
        mutation.

        Successor dicts are shared and cloned lazily on the first
        ``add_edge`` touching them (``_own_succ``).  Node objects are
        shared when *settled* — no engine code path mutates a node once
        it has executed and (for memory operations) resolved its address
        — and cloned otherwise.  Callers who mutate node attributes
        directly must use :meth:`copy` instead; the enumeration engine
        only mutates unsettled nodes, which are private by construction.
        """
        dup = ExecutionGraph.__new__(ExecutionGraph)
        dup.nodes = [node if node.settled else node.clone() for node in self.nodes]
        dup._anc = list(self._anc)
        dup._desc = list(self._desc)
        dup._succ = list(self._succ)
        dup._succ_shared = (1 << len(self._succ)) - 1
        dup._bypass = set(self._bypass)
        return dup

    # ------------------------------------------------------------------
    # verification helpers

    def verify_consistency(self) -> None:
        """Recompute reachability from explicit edges and compare with the
        incremental bitsets; raises GraphError on mismatch.  Test hook."""
        n = len(self.nodes)
        anc = [0] * n
        for u in self.topological_order():
            for v, kinds in self._succ[u].items():
                if kinds & ORDERING_KINDS:
                    anc[v] |= anc[u] | (1 << u)
        # propagate to a fixpoint (topological order above may be stale
        # relative to freshly recomputed sets, so iterate)
        changed = True
        while changed:
            changed = False
            for u in range(n):
                for v, kinds in self._succ[u].items():
                    if kinds & ORDERING_KINDS:
                        want = anc[v] | anc[u] | (1 << u)
                        if want != anc[v]:
                            anc[v] = want
                            changed = True
        if anc != self._anc:
            raise GraphError("incremental ancestor bitsets diverge from recomputation")
        for v in range(n):
            if (anc[v] >> v) & 1:
                raise GraphError(f"node {v} reaches itself: cycle")

    def describe(self) -> str:
        lines = ["ExecutionGraph:"]
        for node in self.nodes:
            lines.append(f"  n{node.nid}: {node.describe()}")
        for u, v, kinds in self.edges():
            lines.append(f"  n{u} -> n{v} [{kinds.pretty()}]")
        return "\n".join(lines)
