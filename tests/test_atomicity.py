"""Unit tests for the Store Atomicity closure on hand-built graphs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AtomicityViolation, CycleError
from repro.core.atomicity import check_store_atomicity, close_store_atomicity
from repro.core.graph import EdgeKind, ExecutionGraph, iter_bits
from repro.core.node import Node
from repro.isa.instructions import OpClass


def store(nid: int, addr: str, value: int, tid: int = 0, index: int = 0) -> Node:
    return Node(
        nid=nid,
        tid=tid,
        index=index,
        instruction=None,
        op_class=OpClass.STORE,
        executed=True,
        writes=True,
        addr=addr,
        stored=value,
        value=value,
    )


def load(nid: int, addr: str, source: int | None = None, tid: int = 0, index: int = 0) -> Node:
    node = Node(
        nid=nid,
        tid=tid,
        index=index,
        instruction=None,
        op_class=OpClass.LOAD,
        addr=addr,
    )
    if source is not None:
        node.source = source
        node.executed = True
    return node


def build(*nodes: Node) -> ExecutionGraph:
    graph = ExecutionGraph()
    for node in nodes:
        graph.add_node(node)
    return graph


class TestRuleA:
    def test_predecessor_store_ordered_before_source(self):
        """S ⊑ L with S ≠ source ⇒ S ⊑ source."""
        graph = build(
            store(0, "x", 1, tid=0, index=0),
            store(1, "x", 2, tid=1, index=0),
            load(2, "x", source=1, tid=0, index=1),
        )
        graph.add_edge(0, 2, EdgeKind.PROGRAM)  # S0 ⊑ L
        graph.add_edge(1, 2, EdgeKind.SOURCE)
        added = close_store_atomicity(graph)
        assert added >= 1
        assert graph.before(0, 1)
        assert check_store_atomicity(graph) == []

    def test_violation_when_source_precedes_predecessor(self):
        """If source ⊑ S ⊑ L already, the closure must fail (overwrite)."""
        graph = build(
            store(0, "x", 1, tid=1, index=0),
            store(1, "x", 2, tid=2, index=0),
            load(2, "x", source=0, tid=0, index=0),
        )
        graph.add_edge(0, 1, EdgeKind.PROGRAM)  # source ⊑ S1
        graph.add_edge(1, 2, EdgeKind.PROGRAM)  # S1 ⊑ L
        graph.add_edge(0, 2, EdgeKind.SOURCE)
        with pytest.raises(AtomicityViolation):
            close_store_atomicity(graph)


class TestRuleB:
    def test_observer_ordered_before_overwriting_store(self):
        """source ⊑ S ⇒ L ⊑ S."""
        graph = build(
            store(0, "x", 1, tid=1, index=0),
            store(1, "x", 2, tid=1, index=1),
            load(2, "x", source=0, tid=0, index=0),
        )
        graph.add_edge(0, 1, EdgeKind.PROGRAM)  # source ⊑ S1
        graph.add_edge(0, 2, EdgeKind.SOURCE)
        close_store_atomicity(graph)
        assert graph.before(2, 1)  # L ⊑ S1


class TestRuleC:
    def test_common_ancestor_precedes_common_successor(self):
        """The Figure 5 shape in miniature: two same-address load/store
        pairings order a mutual ancestor before a mutual successor."""
        graph = build(
            store(0, "y", 2, tid=1, index=0),  # S2
            store(1, "y", 4, tid=2, index=0),  # S4
            load(2, "y", source=0, tid=0, index=1),  # L3 observes S2
            load(3, "y", source=1, tid=0, index=2),  # L5 observes S4
            store(4, "x", 1, tid=0, index=0),  # S1: mutual ancestor of loads
            load(5, "z", tid=3, index=0),  # L7-like mutual successor
        )
        graph.nodes[5].source = None
        graph.add_edge(0, 2, EdgeKind.SOURCE)
        graph.add_edge(1, 3, EdgeKind.SOURCE)
        graph.add_edge(4, 2, EdgeKind.PROGRAM)  # S1 ⊑ L3
        graph.add_edge(4, 3, EdgeKind.PROGRAM)  # S1 ⊑ L5
        graph.add_edge(0, 5, EdgeKind.PROGRAM)  # S2 ⊑ successor
        graph.add_edge(1, 5, EdgeKind.PROGRAM)  # S4 ⊑ successor
        close_store_atomicity(graph)
        assert graph.before(4, 5)  # the rule-c edge
        # and the same-address pair itself stays unordered
        assert not graph.ordered(0, 1)

    def test_rule_c_needs_distinct_sources(self):
        graph = build(
            store(0, "y", 2, tid=1, index=0),
            load(1, "y", source=0, tid=0, index=1),
            load(2, "y", source=0, tid=0, index=2),
            store(3, "x", 1, tid=0, index=0),
            load(4, "z", tid=2, index=0),
        )
        graph.add_edge(0, 1, EdgeKind.SOURCE)
        graph.add_edge(0, 2, EdgeKind.SOURCE)
        graph.add_edge(3, 1, EdgeKind.PROGRAM)
        graph.add_edge(3, 2, EdgeKind.PROGRAM)
        graph.add_edge(0, 4, EdgeKind.PROGRAM)
        close_store_atomicity(graph)
        assert not graph.ordered(3, 4)


class TestFixpoint:
    def test_cascade_requires_iteration(self):
        """The Figure 7 shape: one inserted edge exposes another."""
        graph = build(
            store(0, "x", 1, tid=0, index=0),  # S1
            store(1, "y", 3, tid=0, index=1),  # S3 (after S1 via fence)
            load(2, "y", source=3, tid=0, index=2),  # L6 observes S4
            store(3, "y", 4, tid=1, index=0),  # S4
            load(4, "x", source=5, tid=1, index=1),  # L5 observes S2
            store(5, "x", 2, tid=2, index=0),  # S2
        )
        graph.add_edge(0, 1, EdgeKind.PROGRAM)
        graph.add_edge(1, 2, EdgeKind.PROGRAM)
        graph.add_edge(3, 4, EdgeKind.PROGRAM)
        graph.add_edge(3, 2, EdgeKind.SOURCE)
        graph.add_edge(5, 4, EdgeKind.SOURCE)
        close_store_atomicity(graph)
        assert graph.before(1, 3)  # edge c: S3 ⊑ S4
        assert graph.before(0, 5)  # edge d: S1 ⊑ S2

    def test_idempotent(self):
        graph = build(
            store(0, "x", 1, tid=1, index=0),
            store(1, "x", 2, tid=1, index=1),
            load(2, "x", source=0, tid=0, index=0),
        )
        graph.add_edge(0, 1, EdgeKind.PROGRAM)
        graph.add_edge(0, 2, EdgeKind.SOURCE)
        close_store_atomicity(graph)
        assert close_store_atomicity(graph) == 0

        # Every complete execution of Figure 5 (the largest figure
        # program) is already a fixpoint too.
        from repro.core.enumerate import enumerate_behaviors
        from repro.experiments.fig5 import build_program
        from repro.models.registry import get_model

        for execution in enumerate_behaviors(build_program(), get_model("weak")).executions:
            assert close_store_atomicity(execution.graph) == 0


class TestRmwSelfExclusion:
    def test_rmw_node_not_compared_with_itself(self):
        """An RMW is a store to its own load's address; the rules must not
        order it around itself."""
        rmw = Node(
            nid=1,
            tid=0,
            index=0,
            instruction=None,
            op_class=OpClass.RMW,
            addr="x",
        )
        graph = build(store(0, "x", 0, tid=1, index=0), rmw)
        graph.add_edge(0, 1, EdgeKind.SOURCE)
        rmw.source = 0
        rmw.executed = True
        rmw.writes = True
        rmw.stored = 1
        rmw.value = 0
        close_store_atomicity(graph)
        assert check_store_atomicity(graph) == []

    def test_two_rmws_cannot_share_a_source(self):
        """Two fetch-and-adds observing the same store violate atomicity:
        rule b applies in both directions and forces a cycle."""
        def rmw(nid, tid):
            node = Node(
                nid=nid, tid=tid, index=0, instruction=None, op_class=OpClass.RMW,
                addr="c",
            )
            node.source = 0
            node.executed = True
            node.writes = True
            node.stored = 1
            node.value = 0
            return node

        graph = build(store(0, "c", 0, tid=2, index=0), rmw(1, 0), rmw(2, 1))
        graph.add_edge(0, 1, EdgeKind.SOURCE)
        graph.add_edge(0, 2, EdgeKind.SOURCE)
        with pytest.raises(AtomicityViolation):
            close_store_atomicity(graph)


class TestDeclarativeChecker:
    def test_reports_missing_rule_a_edge(self):
        graph = build(
            store(0, "x", 1, tid=0, index=0),
            store(1, "x", 2, tid=1, index=0),
            load(2, "x", source=1, tid=0, index=1),
        )
        graph.add_edge(0, 2, EdgeKind.PROGRAM)
        graph.add_edge(1, 2, EdgeKind.SOURCE)
        problems = check_store_atomicity(graph)
        assert any("rule a" in problem for problem in problems)

    def test_reports_observed_overwrite(self):
        graph = build(
            store(0, "x", 1, tid=1, index=0),
            store(1, "x", 2, tid=1, index=1),
            load(2, "x", source=0, tid=0, index=0),
        )
        graph.add_edge(0, 1, EdgeKind.PROGRAM)
        graph.add_edge(0, 2, EdgeKind.SOURCE)
        graph.add_edge(1, 2, EdgeKind.PROGRAM)  # overwriting store between
        problems = check_store_atomicity(graph)
        assert any("overwritten" in problem for problem in problems)

    def test_reports_source_to_wrong_address(self):
        graph = build(
            store(0, "y", 1, tid=1, index=0),
            load(1, "x", source=0, tid=0, index=0),
        )
        graph.add_edge(0, 1, EdgeKind.SOURCE)
        problems = check_store_atomicity(graph)
        assert any("different address" in problem for problem in problems)


# ----------------------------------------------------------------------
# differential test against the pairwise closure
#
# ``reference_closure`` is the straightforward load × store formulation
# of rules a/b/c, kept here as an independent oracle for the mask-based
# engine: both must insert the same edges in the same order (the order
# is visible in ``graph.edges()``, in rendered graphs and in
# ``find_path`` explanations) and fail on the same inputs.


def _reference_resolved_loads(graph: ExecutionGraph) -> list[Node]:
    return [
        node
        for node in graph.nodes
        if node.reads_memory and node.executed and node.source is not None
    ]


def _reference_visible_stores(graph: ExecutionGraph) -> list[Node]:
    return [node for node in graph.nodes if node.is_visible_store]


def reference_closure(graph: ExecutionGraph, include_rule_c: bool = True) -> int:
    total_added = 0
    changed = True
    while changed:
        changed = False
        loads = _reference_resolved_loads(graph)
        stores = _reference_visible_stores(graph)

        for load in loads:
            src = load.source
            assert src is not None
            for store in stores:
                # Skip the observed source and the load itself (an RMW node
                # is simultaneously a load and a store; its own write
                # trivially follows its read).
                if store.nid in (src, load.nid) or store.addr != load.addr:
                    continue
                try:
                    # Rule a: S ⊑ L ⇒ S ⊑ source(L)
                    if graph.before(store.nid, load.nid) and not graph.before(store.nid, src):
                        if graph.add_edge(store.nid, src, EdgeKind.ATOMICITY):
                            changed = True
                            total_added += 1
                    # Rule b: source(L) ⊑ S ⇒ L ⊑ S
                    if graph.before(src, store.nid) and not graph.before(load.nid, store.nid):
                        if graph.add_edge(load.nid, store.nid, EdgeKind.ATOMICITY):
                            changed = True
                            total_added += 1
                except CycleError as exc:
                    raise AtomicityViolation(
                        f"store atomicity is unsatisfiable: load {load.describe()} with "
                        f"source n{src} conflicts with store {store.describe()}"
                    ) from exc

        # Rule c: over pairs of same-address loads with distinct sources.
        if not include_rule_c:
            continue
        for i, load in enumerate(loads):
            for other in loads[i + 1 :]:
                if load.addr != other.addr or load.source == other.source:
                    continue
                common_anc = graph.ancestors_mask(load.nid) & graph.ancestors_mask(other.nid)
                common_desc = graph.descendants_mask(load.source) & graph.descendants_mask(
                    other.source
                )
                if not common_anc or not common_desc:
                    continue
                for a in iter_bits(common_anc):
                    missing = common_desc & ~graph.descendants_mask(a)
                    for b in iter_bits(missing):
                        if a == b or graph.before(a, b):
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


# Stores and loads are listed twice so that they are drawn twice as often.
KINDS = ("store", "store", "load", "load", "rmw", "failed-rmw", "unresolved", "compute")
ORDER_KINDS = (EdgeKind.PROGRAM, EdgeKind.DATA, EdgeKind.IMPOSED, EdgeKind.ATOMICITY)


@st.composite
def closure_inputs(draw):
    """A random graph of stores, loads and RMWs over two addresses in up
    to three threads, with partial program order plus random ordering
    edges, a chosen same-address source for every resolved load
    (observed by a SOURCE edge, or by a grey BYPASS edge), and whether
    rule c applies."""
    n = draw(st.integers(min_value=2, max_value=9))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n))
    addrs = draw(st.lists(st.sampled_from("xxy"), min_size=n, max_size=n))
    picks = draw(st.lists(st.integers(min_value=0, max_value=8), min_size=n, max_size=n))
    bypass = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.sampled_from(ORDER_KINDS),
            ),
            max_size=2 * n,
        )
    )
    tids = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    program_order = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    include_rule_c = draw(st.booleans())

    graph = ExecutionGraph()
    for nid, kind in enumerate(kinds):
        op_class = {
            "store": OpClass.STORE,
            "compute": OpClass.COMPUTE,
            "rmw": OpClass.RMW,
            "failed-rmw": OpClass.RMW,
        }.get(kind, OpClass.LOAD)
        graph.add_node(
            Node(
                nid=nid,
                tid=tids[nid],
                index=tids[:nid].count(tids[nid]),
                instruction=None,
                op_class=op_class,
                executed=kind in ("store", "compute"),
                writes=kind in ("store", "rmw"),
                addr=None if kind == "compute" else addrs[nid],
                stored=nid if kind in ("store", "rmw") else None,
            )
        )
    last_in_thread: dict[int, int] = {}
    for nid, tid in enumerate(tids):
        if tid in last_in_thread and program_order[nid]:
            graph.add_edge(last_in_thread[tid], nid, EdgeKind.PROGRAM)
        last_in_thread[tid] = nid
    for u, v, kind in edges:
        try:
            graph.add_edge(u, v, kind)
        except CycleError:
            pass
    # An RMW can be observed only once it has resolved itself, which it
    # does whenever a plain store to its address exists.
    stored_addrs = {addrs[nid] for nid, kind in enumerate(kinds) if kind == "store"}
    writers = [
        nid
        for nid, kind in enumerate(kinds)
        if kind == "store" or (kind == "rmw" and addrs[nid] in stored_addrs)
    ]
    for node in graph.nodes:
        if kinds[node.nid] not in ("load", "rmw", "failed-rmw"):
            continue
        candidates = [w for w in writers if w != node.nid and addrs[w] == node.addr]
        if not candidates:
            continue  # stays an unresolved load
        source = candidates[picks[node.nid] % len(candidates)]
        observation = EdgeKind.BYPASS if bypass[node.nid] else EdgeKind.SOURCE
        try:
            graph.add_edge(source, node.nid, observation)
        except CycleError:
            graph.add_edge(source, node.nid, EdgeKind.BYPASS)
        node.source = source
        node.executed = True
        node.value = source
    return graph, include_rule_c


def _run(closure, graph: ExecutionGraph, include_rule_c: bool):
    try:
        return ("closed", closure(graph, include_rule_c=include_rule_c))
    except AtomicityViolation:
        return ("violation", None)


class TestDifferentialClosure:
    @settings(max_examples=400, deadline=None)
    @given(closure_inputs())
    def test_matches_pairwise_reference(self, case):
        graph, include_rule_c = case
        expected_graph = graph.copy()
        expected = _run(reference_closure, expected_graph, include_rule_c)
        actual = _run(close_store_atomicity, graph, include_rule_c)
        assert actual == expected
        assert graph._anc == expected_graph._anc
        assert graph._desc == expected_graph._desc
        assert list(graph.edges()) == list(expected_graph.edges())
        if actual[0] == "closed":
            graph.verify_consistency()
            if include_rule_c:
                assert check_store_atomicity(graph) == []
