"""Free-connex structure for join-aggregate queries (paper Section 6).

A join-aggregate query ``Q_y`` with output attributes ``y`` is *free-connex*
when it admits a width-1 GHD with a connex subset covering exactly ``y``.
Operationally (the standard equivalent form we implement): ``Q`` is acyclic
and the hypergraph ``E + {y}`` obtained by adding ``y`` as an extra hyperedge
is also acyclic.

The :class:`OutputJoinTree` built here is the scaffold that
``LinearAggroYannakakis`` (Algorithm 1) traverses: a join tree of
``E + {y}`` rooted at the virtual output edge.  The children of the virtual
root, projected onto ``y``, form the residual acyclic query ``T'`` on which
the output-optimal join algorithms run afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError
from repro.query.classify import is_r_hierarchical
from repro.query.hypergraph import Hypergraph, JoinTree, join_tree

__all__ = [
    "OUTPUT_EDGE",
    "OutputJoinTree",
    "is_free_connex",
    "output_join_tree",
    "is_out_hierarchical",
    "residual_output_query",
]

#: Name of the virtual hyperedge added for the output attributes.
OUTPUT_EDGE = "__output__"


def is_free_connex(query: Hypergraph, output_attrs: frozenset[str] | set[str]) -> bool:
    """Whether ``Q_y`` is free-connex: ``Q`` and ``Q + {y}`` both acyclic.

    The boundary cases follow the definition directly: ``y`` empty or equal
    to all attributes leaves ``Q`` unchanged up to a contained/containing
    edge, so only acyclicity of ``Q`` matters.
    """
    y = frozenset(output_attrs)
    if not y <= query.attributes:
        raise QueryError(f"output attrs {sorted(y)} not all in query {query.name}")
    if not query.is_acyclic():
        return False
    if not y or y == query.attributes:
        return True
    return query.with_edge(OUTPUT_EDGE, y).is_acyclic()


@dataclass
class OutputJoinTree:
    """Join tree of ``E + {y}`` rooted at the virtual output edge.

    Attributes:
        query: The original query (without the virtual edge).
        output_attrs: The output attributes ``y``.
        tree: Join tree over ``E + {y}``; its root is :data:`OUTPUT_EDGE`.
            When ``y`` is empty the tree is over ``E`` alone and the root is
            a real edge (total aggregation needs no virtual node).
    """

    query: Hypergraph
    output_attrs: frozenset[str]
    tree: JoinTree

    @property
    def has_virtual_root(self) -> bool:
        return self.tree.root == OUTPUT_EDGE

    def real_nodes_bottom_up(self) -> list[str]:
        """Real (non-virtual) edges in bottom-up order."""
        return [n for n in self.tree.bottom_up() if n != OUTPUT_EDGE]

    def top_attr_node(self, attr: str) -> str:
        """``TOP(x)``: the highest tree node containing ``attr``."""
        return self.tree.highest_node_with(attr)


def output_join_tree(query: Hypergraph, output_attrs: frozenset[str] | set[str]) -> OutputJoinTree:
    """Build the rooted scaffold for a free-connex join-aggregate query.

    Raises:
        QueryError: If the query is not free-connex for ``output_attrs``.
    """
    y = frozenset(output_attrs)
    if not is_free_connex(query, y):
        raise QueryError(
            f"query {query.name} with outputs {sorted(y)} is not free-connex"
        )
    if not y:
        return OutputJoinTree(query=query, output_attrs=y, tree=join_tree(query))
    augmented = query.with_edge(OUTPUT_EDGE, y)
    tree = join_tree(augmented, root=OUTPUT_EDGE)
    return OutputJoinTree(query=query, output_attrs=y, tree=tree)


def residual_output_query(scaffold: OutputJoinTree) -> Hypergraph:
    """The acyclic query ``T'`` left after non-output attributes are removed.

    Its edges are the virtual root's children projected onto ``y`` — exactly
    the relations ``LinearAggroYannakakis`` hands to the downstream join
    algorithm.  The result is checked for acyclicity.

    Raises:
        QueryError: If ``y`` is empty (no residual query: total aggregate) or
            the residual turns out cyclic (cannot happen for free-connex
            inputs; defensive check).
    """
    if not scaffold.output_attrs:
        raise QueryError("total aggregation (y = {}) has no residual query")
    y = scaffold.output_attrs
    if not scaffold.has_virtual_root:
        # y == all attributes: the residual query is the original query.
        return scaffold.query
    children = scaffold.tree.children[OUTPUT_EDGE]
    edges = {}
    for c in children:
        proj = scaffold.query.attrs_of(c) & y
        if proj:
            edges[c] = proj
    if not edges:
        raise QueryError("no residual edges; query/output mismatch")
    residual = Hypergraph(edges, name=f"{scaffold.query.name}-out")
    if not residual.is_acyclic():  # pragma: no cover - defensive
        raise QueryError("residual output query is cyclic")
    return residual


def is_out_hierarchical(query: Hypergraph, output_attrs: frozenset[str] | set[str]) -> bool:
    """Whether ``Q_y`` is out-hierarchical (paper Lemma 4).

    Free-connex and the residual query obtained by removing all non-output
    attributes is r-hierarchical.
    """
    y = frozenset(output_attrs)
    if not is_free_connex(query, y):
        return False
    if not y:
        return True
    projected = query.project(y)
    return is_r_hierarchical(projected)
