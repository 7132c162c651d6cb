"""Tests for the communication graph data structure."""

from __future__ import annotations

import pytest

from repro.core.graph import Communication, CommunicationGraph, ConflictRule
from repro.exceptions import GraphError
from repro.units import MB


class TestCommunication:
    def test_basic_fields(self):
        comm = Communication("a", 0, 1, size=4 * MB)
        assert comm.src == 0
        assert comm.dst == 1
        assert comm.size == 4 * MB
        assert comm.endpoints == (0, 1)

    def test_negative_size_rejected(self):
        with pytest.raises(GraphError):
            Communication("a", 0, 1, size=-1)

    def test_intra_node_detection(self):
        assert Communication("a", 3, 3).is_intra_node
        assert not Communication("a", 3, 4).is_intra_node

    def test_with_size_copies(self):
        comm = Communication("a", 0, 1, size=100)
        other = comm.with_size(200)
        assert other.size == 200
        assert comm.size == 100
        assert other.name == comm.name


class TestGraphConstruction:
    def test_from_edges_auto_names(self):
        graph = CommunicationGraph.from_edges([(0, 1), (0, 2), (0, 3)])
        assert graph.names == ("a", "b", "c")

    def test_from_edges_with_sizes(self):
        graph = CommunicationGraph.from_edges([(0, 1, 100), (1, 2, 200)])
        assert graph["a"].size == 100
        assert graph["b"].size == 200

    def test_from_edges_explicit_names(self):
        graph = CommunicationGraph.from_edges([(0, 1), (1, 2)], names=["x", "y"])
        assert set(graph.names) == {"x", "y"}

    def test_duplicate_name_rejected(self):
        graph = CommunicationGraph()
        graph.add_edge(0, 1, name="a")
        with pytest.raises(GraphError):
            graph.add_edge(1, 2, name="a")

    def test_auto_name_beyond_alphabet(self):
        graph = CommunicationGraph()
        for i in range(30):
            graph.add_edge(i, i + 1)
        assert len(set(graph.names)) == 30

    def test_unknown_communication_lookup(self):
        graph = CommunicationGraph.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            graph["zzz"]

    def test_subgraph(self):
        graph = CommunicationGraph.from_edges([(0, 1), (0, 2), (3, 0)])
        sub = graph.subgraph(["a", "c"])
        assert set(sub.names) == {"a", "c"}
        assert len(sub) == 2

    def test_subgraph_unknown_name(self):
        graph = CommunicationGraph.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            graph.subgraph(["nope"])

    def test_with_sizes(self):
        graph = CommunicationGraph.from_edges([(0, 1, 100), (1, 2, 200)])
        resized = graph.with_sizes(4 * MB)
        assert all(c.size == 4 * MB for c in resized)
        assert graph["a"].size == 100  # original untouched

    def test_nodes_property(self):
        graph = CommunicationGraph.from_edges([(0, 1), (5, 0)])
        assert set(graph.nodes) == {0, 1, 5}

    def test_equality_and_hash(self):
        g1 = CommunicationGraph.from_edges([(0, 1), (0, 2)])
        g2 = CommunicationGraph.from_edges([(0, 1), (0, 2)])
        g3 = CommunicationGraph.from_edges([(0, 1), (0, 3)])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != g3


class TestDegrees:
    def test_out_and_in_degree(self):
        graph = CommunicationGraph.from_edges([(0, 1), (0, 2), (0, 3), (4, 0)])
        assert graph.out_degree(0) == 3
        assert graph.in_degree(0) == 1
        assert graph.in_degree(1) == 1
        assert graph.out_degree(4) == 1

    def test_delta_per_communication(self):
        graph = CommunicationGraph.from_edges([(0, 1), (0, 2), (3, 2)])
        assert graph.delta_o("a") == 2
        assert graph.delta_i("a") == 1
        assert graph.delta_i("b") == 2
        assert graph.delta_o("c") == 1

    def test_intra_node_does_not_count_in_degrees(self):
        graph = CommunicationGraph()
        graph.add_edge(0, 0, name="local")
        graph.add_edge(0, 1, name="remote")
        assert graph.out_degree(0) == 1
        assert graph.in_degree(0) == 0

    def test_degree_of_unknown_communication(self):
        graph = CommunicationGraph.from_edges([(0, 1)])
        foreign = Communication("zz", 7, 8)
        with pytest.raises(GraphError):
            graph.delta_o(foreign)


class TestStronglySlowedSets:
    def test_definition_1_outgoing(self):
        # node 0 sends to nodes with in-degrees 1, 2, 3; only the last is strongly slowed
        graph = CommunicationGraph.from_edges(
            [(0, 1), (0, 2), (0, 3), (4, 2), (5, 3), (6, 3)],
            names=["a", "b", "c", "x", "y", "z"],
        )
        assert not graph.is_strongly_slowed_outgoing("a")
        assert not graph.is_strongly_slowed_outgoing("b")
        assert graph.is_strongly_slowed_outgoing("c")
        assert [c.name for c in graph.strongly_slowed_outgoing("a")] == ["c"]

    def test_definition_1_incoming(self):
        # node 3 receives from sources with out-degrees 1 and 2
        graph = CommunicationGraph.from_edges(
            [(0, 3), (0, 1), (2, 3)], names=["a", "b", "c"]
        )
        assert graph.is_strongly_slowed_incoming("a")      # source out-degree 2 (max)
        assert not graph.is_strongly_slowed_incoming("c")  # source out-degree 1

    def test_ties_put_everyone_in_the_set(self):
        graph = CommunicationGraph.from_edges([(0, 1), (0, 2), (0, 3)])
        for name in graph.names:
            assert graph.is_strongly_slowed_outgoing(name)
        assert len(graph.strongly_slowed_outgoing("a")) == 3


class TestConflictGraph:
    def test_endpoint_rule_shared_source(self):
        graph = CommunicationGraph.from_edges([(0, 1), (0, 2), (3, 4)])
        adjacency = graph.conflict_adjacency(ConflictRule.ENDPOINT)
        assert adjacency["a"] == frozenset({"b"})
        assert adjacency["c"] == frozenset()

    def test_endpoint_rule_shared_destination(self):
        graph = CommunicationGraph.from_edges([(0, 2), (1, 2)])
        adjacency = graph.conflict_adjacency()
        assert adjacency["a"] == frozenset({"b"})

    def test_income_outgo_does_not_conflict_under_endpoint_rule(self):
        graph = CommunicationGraph.from_edges([(0, 1), (2, 0)])
        adjacency = graph.conflict_adjacency(ConflictRule.ENDPOINT)
        assert adjacency["a"] == frozenset()
        assert adjacency["b"] == frozenset()

    def test_any_node_rule_is_stricter(self):
        graph = CommunicationGraph.from_edges([(0, 1), (2, 0)])
        adjacency = graph.conflict_adjacency(ConflictRule.ANY_NODE)
        assert adjacency["a"] == frozenset({"b"})

    def test_unknown_rule_rejected(self):
        graph = CommunicationGraph.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            graph.conflict_adjacency("bogus")

    def test_conflict_components(self):
        graph = CommunicationGraph.from_edges([(0, 1), (0, 2), (5, 6), (7, 6)])
        components = graph.conflict_components()
        assert sorted(map(sorted, components)) == [["a", "b"], ["c", "d"]]

    def test_intra_node_excluded_from_conflicts(self):
        graph = CommunicationGraph()
        graph.add_edge(0, 0, name="local")
        graph.add_edge(0, 1, name="remote")
        adjacency = graph.conflict_adjacency()
        assert "local" not in adjacency
        assert adjacency["remote"] == frozenset()


class TestConversions:
    def test_networkx_round_trip(self):
        graph = CommunicationGraph.from_edges([(0, 1, 100), (0, 2, 200), (3, 0, 300)],
                                              name="demo")
        back = CommunicationGraph.from_networkx(graph.to_networkx())
        assert back.to_edge_list() == graph.to_edge_list()
        assert set(back.names) == set(graph.names)

    def test_to_edge_list_order(self):
        graph = CommunicationGraph.from_edges([(3, 0), (0, 1)])
        assert graph.to_edge_list()[0][:2] == (3, 0)

    def test_describe_mentions_every_communication(self):
        graph = CommunicationGraph.from_edges([(0, 1), (0, 2)], name="demo")
        text = graph.describe()
        assert "demo" in text
        assert "a:" in text and "b:" in text


class TestConflictComponentsUnderBothRules:
    # scheme: a income/outgo pair 0->1, 1->2 is split by ENDPOINT
    # (no shared source, no shared destination) but joined by ANY_NODE.
    def test_endpoint_rule_splits_income_outgo_chain(self):
        graph = CommunicationGraph.from_edges([(0, 1), (1, 2)])
        components = graph.conflict_components(ConflictRule.ENDPOINT)
        assert sorted(map(sorted, components)) == [["a"], ["b"]]

    def test_any_node_rule_joins_income_outgo_chain(self):
        graph = CommunicationGraph.from_edges([(0, 1), (1, 2)])
        components = graph.conflict_components(ConflictRule.ANY_NODE)
        assert sorted(map(sorted, components)) == [["a", "b"]]

    def test_shared_source_joined_under_both_rules(self):
        graph = CommunicationGraph.from_edges([(0, 1), (0, 2), (5, 6)])
        for rule in ConflictRule.ALL:
            components = graph.conflict_components(rule)
            assert sorted(map(sorted, components)) == [["a", "b"], ["c"]]

    def test_shared_destination_joined_under_both_rules(self):
        graph = CommunicationGraph.from_edges([(1, 0), (2, 0), (5, 6)])
        for rule in ConflictRule.ALL:
            components = graph.conflict_components(rule)
            assert sorted(map(sorted, components)) == [["a", "b"], ["c"]]

    def test_any_node_components_coarsen_endpoint_components(self):
        graph = CommunicationGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (5, 6), (7, 6), (8, 9)]
        )
        endpoint = graph.conflict_components(ConflictRule.ENDPOINT)
        any_node = graph.conflict_components(ConflictRule.ANY_NODE)
        for fine in endpoint:
            assert any(set(fine) <= set(coarse) for coarse in any_node)

    def test_intra_node_never_in_components(self):
        graph = CommunicationGraph.from_edges([(0, 0), (0, 1)])
        for rule in ConflictRule.ALL:
            members = {n for comp in graph.conflict_components(rule) for n in comp}
            assert members == {"b"}

    def test_conflict_resources(self):
        assert CommunicationGraph.conflict_resources(3, 4, ConflictRule.ENDPOINT) == (
            ("src", 3), ("dst", 4))
        assert CommunicationGraph.conflict_resources(3, 4, ConflictRule.ANY_NODE) == (
            ("node", 3), ("node", 4))
        with pytest.raises(GraphError):
            CommunicationGraph.conflict_resources(3, 4, "bogus")


def key_of(graph, names=None):
    """The canonical key of ``names`` (default: the whole graph)."""
    return graph.canonical_component(graph.names if names is None else names)[0]


class TestCanonicalComponent:
    def test_order_independent(self):
        g1 = CommunicationGraph.from_edges([(0, 1), (0, 2)])
        g2 = CommunicationGraph.from_edges([(0, 2), (0, 1)])
        assert key_of(g1) == key_of(g2)

    def test_node_relabelling_invariant_when_order_preserved(self):
        g1 = CommunicationGraph.from_edges([(0, 1), (0, 2)])
        g2 = CommunicationGraph.from_edges([(10, 21), (10, 32)])
        assert key_of(g1) == key_of(g2)

    def test_name_independent(self):
        g1 = CommunicationGraph.from_edges([(0, 1), (2, 1)], names=["x", "y"])
        g2 = CommunicationGraph.from_edges([(2, 1), (0, 1)], names=["p", "q"])
        assert key_of(g1) == key_of(g2)

    def test_distinguishes_structure(self):
        fan_out = CommunicationGraph.from_edges([(0, 1), (0, 2)])
        fan_in = CommunicationGraph.from_edges([(1, 0), (2, 0)])
        assert key_of(fan_out) != key_of(fan_in)

    def test_multiplicity_preserved(self):
        single = CommunicationGraph.from_edges([(0, 1)])
        double = CommunicationGraph.from_edges([(0, 1), (0, 1)])
        assert key_of(single) != key_of(double)

    def test_subset_selection(self):
        graph = CommunicationGraph.from_edges([(0, 1), (0, 2), (5, 6)])
        assert graph.canonical_component(["c"]) == (((0, 1),), {"c": (0, 1)})

    def test_sizes_ignored(self):
        g1 = CommunicationGraph.from_edges([(0, 1, 100)])
        g2 = CommunicationGraph.from_edges([(0, 1, 200)])
        assert key_of(g1) == key_of(g2)

    def test_endpoint_ranks_use_the_key_relabelling(self):
        graph = CommunicationGraph.from_edges([(7, 3), (7, 9)], names=["x", "y"])
        key, ranks = graph.canonical_component(["y", "x"])
        assert ranks == {"x": (1, 0), "y": (1, 2)}
        assert key == tuple(sorted(ranks.values()))

    def test_unknown_name_rejected(self):
        graph = CommunicationGraph.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            graph.canonical_component(["nope"])
