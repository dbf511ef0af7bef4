"""Tests for hypergraphs, GYO reduction, and join trees."""

import pytest

from repro.errors import CyclicQueryError, QueryError
from repro.query import catalog
from repro.query.hypergraph import Hypergraph, gyo_reduction, join_tree


class TestHypergraphBasics:
    def test_edges_and_attributes(self):
        q = Hypergraph({"R1": ("A", "B"), "R2": ("B", "C")})
        assert q.attributes == {"A", "B", "C"}
        assert q.attrs_of("R1") == {"A", "B"}
        assert q.num_edges == 2
        assert q.num_attributes == 3

    def test_edges_with(self):
        q = catalog.line3()
        assert q.edges_with("B") == {"R1", "R2"}
        assert q.edges_with("A") == {"R1"}

    def test_unknown_edge_raises(self):
        q = catalog.line3()
        with pytest.raises(QueryError):
            q.attrs_of("R9")

    def test_unknown_attribute_raises(self):
        q = catalog.line3()
        with pytest.raises(QueryError):
            q.edges_with("Z")

    def test_empty_query_raises(self):
        with pytest.raises(QueryError):
            Hypergraph({})

    def test_empty_edge_raises(self):
        with pytest.raises(QueryError):
            Hypergraph({"R1": ()})

    def test_equality_and_hash(self):
        q1 = Hypergraph({"R1": ("A", "B")})
        q2 = Hypergraph({"R1": ("B", "A")})
        assert q1 == q2
        assert hash(q1) == hash(q2)

    def test_contains_and_iter(self):
        q = catalog.line3()
        assert "R1" in q and "R9" not in q
        assert sorted(q) == ["R1", "R2", "R3"]
        assert len(q) == 3


class TestDerivedHypergraphs:
    def test_with_edge(self):
        q = catalog.line3().with_edge("Y", ("A", "D"))
        assert q.attrs_of("Y") == {"A", "D"}
        assert q.num_edges == 4

    def test_with_duplicate_edge_raises(self):
        with pytest.raises(QueryError):
            catalog.line3().with_edge("R1", ("A",))

    def test_without_edges(self):
        q = catalog.line3().without_edges(["R3"])
        assert set(q.edge_names) == {"R1", "R2"}

    def test_without_all_edges_raises(self):
        with pytest.raises(QueryError):
            catalog.line3().without_edges(["R1", "R2", "R3"])

    def test_residual_removes_attributes(self):
        q = catalog.line3().residual({"B"})
        assert q.attrs_of("R1") == {"A"}
        assert q.attrs_of("R2") == {"C"}

    def test_residual_drops_empty_edges(self):
        q = Hypergraph({"R1": ("A",), "R2": ("A", "B")}).residual({"A"})
        assert set(q.edge_names) == {"R2"}

    def test_project(self):
        q = catalog.line3().project({"A", "B", "C"})
        assert q.attrs_of("R3") == {"C"}

    def test_connected_components(self):
        q = Hypergraph({"R1": ("A", "B"), "R2": ("B", "C"), "R3": ("X",)})
        comps = q.connected_components()
        assert sorted(sorted(c) for c in comps) == [["R1", "R2"], ["R3"]]


class TestReduce:
    def test_reduce_removes_contained_edges(self):
        q = catalog.simple_r_hierarchical()
        reduced, witness = q.reduce()
        assert set(reduced.edge_names) == {"R2"}
        assert witness == {"R1": "R2", "R3": "R2"}

    def test_reduce_noop_on_reduced(self):
        q = catalog.line3()
        reduced, witness = q.reduce()
        assert set(reduced.edge_names) == {"R1", "R2", "R3"}
        assert witness == {}

    def test_reduce_equal_edges_keeps_one(self):
        q = Hypergraph({"R1": ("A", "B"), "R2": ("A", "B")})
        reduced, witness = q.reduce()
        assert len(reduced.edge_names) == 1
        assert len(witness) == 1

    def test_reduce_chain_of_containments(self):
        q = Hypergraph({"R1": ("A",), "R2": ("A", "B"), "R3": ("A", "B", "C")})
        reduced, witness = q.reduce()
        assert set(reduced.edge_names) == {"R3"}
        # Witness chains must resolve to the survivor.
        assert set(witness.values()) == {"R3"}

    def test_reduce_idempotent(self):
        q = catalog.q2_r_hierarchical()
        reduced1, _ = q.reduce()
        reduced2, w2 = reduced1.reduce()
        assert reduced1 == reduced2
        assert w2 == {}


class TestGYO:
    def test_acyclic_queries_reduce(self):
        for name in ["binary", "line3", "line4", "star3", "q1_tall_flat", "fork"]:
            assert gyo_reduction(catalog.CATALOG[name]) is not None, name

    def test_triangle_is_cyclic(self):
        assert gyo_reduction(catalog.triangle()) is None

    def test_cycle4_is_cyclic(self):
        q = Hypergraph(
            {"R1": ("A", "B"), "R2": ("B", "C"), "R3": ("C", "D"), "R4": ("D", "A")}
        )
        assert gyo_reduction(q) is None

    def test_keep_last_respected(self):
        parent = gyo_reduction(catalog.line3(), keep_last="R2")
        assert parent is not None
        assert parent["R2"] is None

    def test_keep_last_unknown_raises(self):
        with pytest.raises(QueryError):
            gyo_reduction(catalog.line3(), keep_last="R9")

    def test_single_edge(self):
        parent = gyo_reduction(Hypergraph({"R1": ("A",)}))
        assert parent == {"R1": None}


class TestJoinTree:
    def test_cyclic_raises(self):
        with pytest.raises(CyclicQueryError):
            join_tree(catalog.triangle())

    @pytest.mark.parametrize(
        "name",
        ["binary", "line3", "line4", "line5", "star3", "q1_tall_flat",
         "q2_hierarchical", "q2_r_hierarchical", "fork", "broom", "two_ears"],
    )
    def test_validates_on_catalog(self, name):
        tree = join_tree(catalog.CATALOG[name])
        tree.validate()  # coherence holds
        assert set(tree.nodes()) == set(catalog.CATALOG[name].edge_names)

    def test_rooting(self):
        for root in catalog.line3().edge_names:
            tree = join_tree(catalog.line3(), root=root)
            assert tree.root == root
            tree.validate()

    def test_bottom_up_parents_last(self):
        tree = join_tree(catalog.fork_join())
        order = tree.bottom_up()
        for node in order:
            par = tree.parent[node]
            if par is not None:
                assert order.index(node) < order.index(par)

    def test_top_down_is_reverse(self):
        tree = join_tree(catalog.line_join(5))
        assert tree.top_down() == list(reversed(tree.bottom_up()))

    @pytest.mark.parametrize("query", [
        catalog.broom_join(),
        catalog.fork_join(),
        catalog.star_join(4),
        Hypergraph({"R1": ("A", "B"), "R2": ("B", "C"), "S1": ("D",), "S2": ("D", "E")}),
    ], ids=["broom", "fork", "star4", "disconnected"])
    def test_sweeps_are_the_two_loop_order(self, query):
        """The full reducer's order: the up sweep over ``bottom_up``, then
        the down sweep over ``top_down`` and each node's sorted children."""
        tree = join_tree(query)
        expected = [
            (tree.parent[node], node, "up")
            for node in tree.bottom_up() if tree.parent[node] is not None
        ]
        for node in tree.top_down():
            for child in tree.children[node]:
                expected.append((child, node, "down"))
        assert tree.sweeps() == expected
        assert len(expected) == 2 * (len(query.edge_names) - 1)

    def test_leaves_and_depth(self):
        tree = join_tree(catalog.line3(), root="R1")
        assert tree.depth(tree.root) == 0
        assert all(tree.depth(leaf) >= 1 for leaf in tree.leaves())

    def test_separator(self):
        tree = join_tree(catalog.line3(), root="R2")
        assert tree.separator("R2") == frozenset()
        seps = {tree.separator(n) for n in ("R1", "R3")}
        assert seps == {frozenset({"B"}), frozenset({"C"})}

    def test_internal_nodes_with_leaf_children_exists(self):
        for name in ["line3", "line5", "fork", "broom", "q1_tall_flat"]:
            tree = join_tree(catalog.CATALOG[name])
            if len(tree.nodes()) >= 2:
                assert tree.internal_nodes_with_leaf_children(), name

    def test_subtree(self):
        tree = join_tree(catalog.line3(), root="R1")
        assert tree.subtree(tree.root) == set(tree.nodes())

    def test_highest_node_with(self):
        tree = join_tree(catalog.line3(), root="R1")
        assert tree.highest_node_with("A") == "R1"
        assert tree.highest_node_with("B") == "R1"

    def test_disconnected_query_gets_glued_tree(self):
        q = Hypergraph({"R1": ("A",), "R2": ("B",)})
        tree = join_tree(q)
        tree.validate()
        assert len(tree.nodes()) == 2
