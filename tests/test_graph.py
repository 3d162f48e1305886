"""Unit + property tests for the execution graph engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CycleError, GraphError
from repro.core.graph import EdgeKind, ExecutionGraph, iter_bits
from repro.core.node import Node
from repro.isa.instructions import OpClass


def make_node(nid: int, op_class: OpClass = OpClass.COMPUTE) -> Node:
    return Node(nid=nid, tid=0, index=nid, instruction=None, op_class=op_class)


def graph_with(n: int) -> ExecutionGraph:
    graph = ExecutionGraph()
    for i in range(n):
        graph.add_node(make_node(i))
    return graph


class TestIterBits:
    def test_empty(self):
        assert list(iter_bits(0)) == []

    def test_bits_in_order(self):
        assert list(iter_bits(0b10110)) == [1, 2, 4]

    def test_large_positions(self):
        assert list(iter_bits(1 << 200)) == [200]


class TestBasicEdges:
    def test_add_node_checks_id(self):
        graph = ExecutionGraph()
        with pytest.raises(GraphError):
            graph.add_node(make_node(3))

    def test_edge_creates_order(self):
        graph = graph_with(3)
        assert graph.add_edge(0, 1, EdgeKind.PROGRAM)
        assert graph.before(0, 1)
        assert not graph.before(1, 0)
        assert not graph.ordered(0, 2)

    def test_transitivity(self):
        graph = graph_with(3)
        graph.add_edge(0, 1, EdgeKind.PROGRAM)
        graph.add_edge(1, 2, EdgeKind.DATA)
        assert graph.before(0, 2)

    @pytest.mark.parametrize("n, dense", [(64, False), (32, True)])
    def test_first_node_precedes_last_in_chain_and_dense_dag(self, n, dense):
        graph = graph_with(n)
        for v in range(1, n):
            for u in range(0 if dense else v - 1, v):
                graph.add_edge(u, v, EdgeKind.PROGRAM)
        assert graph.before(0, n - 1)
        assert graph.copy().before(0, n - 1)

    def test_redundant_edge_returns_false(self):
        graph = graph_with(3)
        graph.add_edge(0, 1, EdgeKind.PROGRAM)
        graph.add_edge(1, 2, EdgeKind.PROGRAM)
        assert graph.add_edge(0, 2, EdgeKind.ATOMICITY) is False
        # but its kind is still recorded
        assert graph.edge_kinds(0, 2) == EdgeKind.ATOMICITY

    def test_self_edge_is_cycle(self):
        graph = graph_with(1)
        with pytest.raises(CycleError):
            graph.add_edge(0, 0, EdgeKind.PROGRAM)

    def test_direct_cycle_detected(self):
        graph = graph_with(2)
        graph.add_edge(0, 1, EdgeKind.PROGRAM)
        with pytest.raises(CycleError):
            graph.add_edge(1, 0, EdgeKind.PROGRAM)

    def test_long_cycle_detected(self):
        graph = graph_with(4)
        for u, v in ((0, 1), (1, 2), (2, 3)):
            graph.add_edge(u, v, EdgeKind.PROGRAM)
        with pytest.raises(CycleError):
            graph.add_edge(3, 0, EdgeKind.ATOMICITY)

    def test_kind_merging(self):
        graph = graph_with(2)
        graph.add_edge(0, 1, EdgeKind.PROGRAM)
        graph.add_edge(0, 1, EdgeKind.SOURCE)
        assert graph.edge_kinds(0, 1) == EdgeKind.PROGRAM | EdgeKind.SOURCE

    def test_unknown_node_rejected(self):
        graph = graph_with(2)
        with pytest.raises(GraphError):
            graph.add_edge(0, 5, EdgeKind.PROGRAM)
        with pytest.raises(GraphError):
            graph.before(0, 9)

    def test_edge_kinds_rejects_unknown_nodes(self):
        """A negative id must not wrap around to the last node, and an id
        past the end must raise GraphError, not IndexError."""
        graph = graph_with(3)
        graph.add_edge(2, 0, EdgeKind.PROGRAM)
        for u, v in ((-1, 0), (5, 0), (0, -1), (0, 5)):
            with pytest.raises(GraphError):
                graph.edge_kinds(u, v)
        assert graph.edge_kinds(2, 0) == EdgeKind.PROGRAM
        assert graph.edge_kinds(0, 2) is None


class TestBypassEdges:
    def test_bypass_does_not_order(self):
        graph = graph_with(2)
        graph.add_edge(0, 1, EdgeKind.BYPASS)
        assert not graph.ordered(0, 1)
        assert (0, 1) in graph.bypass_edges()

    def test_bypass_allows_reverse_real_edge(self):
        """A grey edge must not block a real edge in the other direction."""
        graph = graph_with(2)
        graph.add_edge(0, 1, EdgeKind.BYPASS)
        graph.add_edge(1, 0, EdgeKind.ATOMICITY)
        assert graph.before(1, 0)

    def test_bypass_reported_by_edges_iterator(self):
        graph = graph_with(2)
        graph.add_edge(0, 1, EdgeKind.BYPASS)
        assert (0, 1, EdgeKind.BYPASS) in list(graph.edges())


class TestQueries:
    def test_ancestors_descendants(self):
        graph = graph_with(4)
        graph.add_edge(0, 1, EdgeKind.PROGRAM)
        graph.add_edge(1, 3, EdgeKind.PROGRAM)
        graph.add_edge(2, 3, EdgeKind.PROGRAM)
        assert graph.ancestors(3) == [0, 1, 2]
        assert graph.descendants(0) == [1, 3]

    def test_unordered_pairs(self):
        graph = graph_with(3)
        graph.add_edge(0, 1, EdgeKind.PROGRAM)
        assert set(graph.unordered_pairs()) == {(0, 2), (1, 2)}

    def test_topological_order_is_linear_extension(self):
        graph = graph_with(5)
        edges = [(0, 2), (2, 4), (1, 2), (3, 4)]
        for u, v in edges:
            graph.add_edge(u, v, EdgeKind.PROGRAM)
        order = graph.topological_order()
        position = {n: i for i, n in enumerate(order)}
        for u, v in edges:
            assert position[u] < position[v]

    def test_reachability_pairs(self):
        graph = graph_with(3)
        graph.add_edge(0, 1, EdgeKind.PROGRAM)
        graph.add_edge(1, 2, EdgeKind.PROGRAM)
        assert graph.reachability_pairs() == frozenset({(0, 1), (1, 2), (0, 2)})


class TestFindPath:
    def test_path_through_intermediate(self):
        graph = graph_with(3)
        graph.add_edge(0, 1, EdgeKind.PROGRAM)
        graph.add_edge(1, 2, EdgeKind.DATA)
        path = graph.find_path(0, 2)
        assert [(u, v) for u, v, _ in path] == [(0, 1), (1, 2)]

    def test_no_path(self):
        assert graph_with(2).find_path(0, 1) is None

    def test_bypass_edges_do_not_carry_paths(self):
        graph = graph_with(2)
        graph.add_edge(0, 1, EdgeKind.BYPASS)
        assert graph.find_path(0, 1) is None


class TestCopy:
    def test_copy_is_independent(self):
        graph = graph_with(3)
        graph.add_edge(0, 1, EdgeKind.PROGRAM)
        dup = graph.copy()
        dup.add_edge(1, 2, EdgeKind.PROGRAM)
        dup.nodes[0].executed = True
        assert not graph.before(1, 2)
        assert not graph.nodes[0].executed
        assert dup.before(0, 2)


@st.composite
def random_dag_edges(draw):
    """Random edge sets over nodes 0..n-1, oriented low->high (acyclic)."""
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=30))
    return n, chosen


class TestReachabilityProperty:
    @given(random_dag_edges())
    @settings(max_examples=200, deadline=None)
    def test_bitsets_match_networkx(self, data):
        """The incremental bitsets agree with networkx's transitive closure."""
        import networkx as nx

        n, edges = data
        graph = graph_with(n)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        for u, v in edges:
            graph.add_edge(u, v, EdgeKind.PROGRAM)
            nxg.add_edge(u, v)
        for v in range(n):
            expected = set(nx.ancestors(nxg, v))
            assert set(graph.ancestors(v)) == expected
            assert set(graph.descendants(v)) == set(nx.descendants(nxg, v))
        graph.verify_consistency()

    @given(random_dag_edges())
    @settings(max_examples=100, deadline=None)
    def test_random_insertion_order_same_reachability(self, data):
        """Reachability is independent of edge insertion order."""
        n, edges = data
        forward = graph_with(n)
        backward = graph_with(n)
        for u, v in edges:
            forward.add_edge(u, v, EdgeKind.PROGRAM)
        for u, v in reversed(edges):
            backward.add_edge(u, v, EdgeKind.PROGRAM)
        assert forward.reachability_pairs() == backward.reachability_pairs()
