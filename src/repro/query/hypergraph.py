"""Join hypergraphs, GYO reduction, acyclicity, and join trees.

A (natural) join query is a hypergraph ``Q = (V, E)`` whose vertices model
attributes and whose hyperedges model relations (paper Section 1).  Edges are
*named* so that distinct relations over the same attribute set (self-joins)
stay distinguishable.

The central structural notions implemented here:

* **GYO reduction / acyclicity** — a query is (alpha-)acyclic iff repeated
  ear removal empties the hypergraph.  Ear removal doubles as a join-tree
  construction: when ear ``e`` is removed with witness ``e'`` we record the
  tree edge ``e -> e'``.
* **Join tree** — a tree over the edge names such that for every attribute
  the set of nodes containing it is connected (the *coherence* or *running
  intersection* property).
* **Reduce procedure** (paper Section 1.4) — repeatedly remove an edge whose
  attribute set is contained in another edge's; a query is *r-hierarchical*
  when its reduced hypergraph is hierarchical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import CyclicQueryError, QueryError

__all__ = ["Hypergraph", "JoinTree", "gyo_reduction", "join_tree"]


class Hypergraph:
    """An immutable join hypergraph: named hyperedges over attributes.

    Args:
        edges: Mapping from relation (edge) name to an iterable of attribute
            names.  Attribute order is irrelevant; edges are stored as
            frozensets.
        name: Optional human-readable query name for reprs and reports.

    Raises:
        QueryError: If no edges are given or an edge is empty.
    """

    def __init__(self, edges: Mapping[str, Iterable[str]], name: str = "Q") -> None:
        if not edges:
            raise QueryError("a query needs at least one relation")
        self._edges: dict[str, frozenset[str]] = {}
        for edge_name, attrs in edges.items():
            attr_set = frozenset(attrs)
            if not attr_set:
                raise QueryError(f"edge {edge_name!r} has no attributes")
            self._edges[str(edge_name)] = attr_set
        self.name = name
        self._attrs: frozenset[str] = frozenset().union(*self._edges.values())

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def edges(self) -> dict[str, frozenset[str]]:
        """Copy of the name -> attribute-set mapping."""
        return dict(self._edges)

    @property
    def edge_names(self) -> tuple[str, ...]:
        """Edge names in insertion order."""
        return tuple(self._edges)

    @property
    def attributes(self) -> frozenset[str]:
        """All attributes appearing in some edge."""
        return self._attrs

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def num_attributes(self) -> int:
        return len(self._attrs)

    def attrs_of(self, edge_name: str) -> frozenset[str]:
        """Attribute set of the named edge."""
        try:
            return self._edges[edge_name]
        except KeyError:
            raise QueryError(f"unknown edge {edge_name!r} in query {self.name}") from None

    def edges_with(self, attr: str) -> frozenset[str]:
        """``E_x``: names of edges containing ``attr`` (paper Section 1.4)."""
        if attr not in self._attrs:
            raise QueryError(f"unknown attribute {attr!r} in query {self.name}")
        return frozenset(n for n, e in self._edges.items() if attr in e)

    def __contains__(self, edge_name: str) -> bool:
        return edge_name in self._edges

    def __iter__(self) -> Iterator[str]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._edges == other._edges

    def __hash__(self) -> int:
        return hash(frozenset(self._edges.items()))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{n}({','.join(sorted(a))})" for n, a in self._edges.items()
        )
        return f"Hypergraph<{self.name}: {parts}>"

    # ------------------------------------------------------------------
    # Derived hypergraphs
    # ------------------------------------------------------------------
    def with_edge(self, edge_name: str, attrs: Iterable[str], name: str | None = None) -> "Hypergraph":
        """Return a copy with one extra edge (used for free-connex tests)."""
        if edge_name in self._edges:
            raise QueryError(f"edge {edge_name!r} already exists")
        new_edges = dict(self._edges)
        new_edges[edge_name] = frozenset(attrs)
        return Hypergraph(new_edges, name=name or f"{self.name}+{edge_name}")

    def without_edges(self, edge_names: Iterable[str]) -> "Hypergraph":
        """Return a copy with the given edges removed."""
        drop = set(edge_names)
        kept = {n: a for n, a in self._edges.items() if n not in drop}
        if not kept:
            raise QueryError("cannot remove all edges")
        return Hypergraph(kept, name=f"{self.name}-minus")

    def residual(self, attrs: Iterable[str], name: str | None = None) -> "Hypergraph":
        """The residual query ``Q_x``: remove ``attrs`` from every edge.

        Edges that become empty are dropped (paper Section 3.1 sets their
        packing weight to zero; they carry no residual structure).
        """
        removed = frozenset(attrs)
        kept: dict[str, frozenset[str]] = {}
        for n, e in self._edges.items():
            rest = e - removed
            if rest:
                kept[n] = rest
        if not kept:
            raise QueryError("residual query has no edges")
        return Hypergraph(kept, name=name or f"{self.name}-residual")

    def project(self, attrs: Iterable[str], name: str | None = None) -> "Hypergraph":
        """Project every edge onto ``attrs``, dropping the edges left empty
        (used for out-hierarchical tests)."""
        keep = frozenset(attrs)
        kept: dict[str, frozenset[str]] = {}
        for n, e in self._edges.items():
            proj = e & keep
            if proj:
                kept[n] = proj
        if not kept:
            raise QueryError("projection has no edges")
        return Hypergraph(kept, name=name or f"{self.name}-proj")

    def reduce(self) -> tuple["Hypergraph", dict[str, str]]:
        """Apply the reduce procedure: drop edges contained in other edges.

        Returns:
            ``(reduced, witness)`` where ``witness[removed] = survivor`` maps
            each removed edge to the edge that contained it at removal time
            (transitively resolved to a surviving edge).  Ties between equal
            attribute sets are broken by edge name so the result is
            deterministic.
        """
        remaining = dict(self._edges)
        witness: dict[str, str] = {}
        changed = True
        while changed:
            changed = False
            names = sorted(remaining)
            for n in names:
                e = remaining[n]
                for n2 in names:
                    if n2 == n or n2 not in remaining or n not in remaining:
                        continue
                    e2 = remaining[n2]
                    if e < e2 or (e == e2 and n > n2):
                        witness[n] = n2
                        del remaining[n]
                        changed = True
                        break
        # Resolve witness chains to surviving edges.
        resolved: dict[str, str] = {}
        for n in witness:
            w = witness[n]
            while w not in remaining:
                w = witness[w]
            resolved[n] = w
        return Hypergraph(remaining, name=f"{self.name}-reduced"), resolved

    def connected_components(self) -> list[frozenset[str]]:
        """Edge names grouped by attribute-sharing connectivity."""
        names = list(self._edges)
        parent = {n: n for n in names}

        def find(a: str) -> str:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, n1 in enumerate(names):
            for n2 in names[i + 1 :]:
                if self._edges[n1] & self._edges[n2]:
                    parent[find(n1)] = find(n2)
        comps: dict[str, set[str]] = {}
        for n in names:
            comps.setdefault(find(n), set()).add(n)
        return [frozenset(c) for c in comps.values()]

    def is_acyclic(self) -> bool:
        """Alpha-acyclicity via GYO reduction."""
        return gyo_reduction(self) is not None


def gyo_reduction(query: Hypergraph, keep_last: str | None = None) -> dict[str, str | None] | None:
    """Run the GYO ear-decomposition on ``query``.

    An edge ``e`` is an *ear* if the attributes it shares with the rest of the
    hypergraph are all contained in a single other edge ``e'`` (the witness).
    Removing ears until one edge remains succeeds exactly on acyclic queries.

    Args:
        query: The hypergraph to reduce.
        keep_last: Optional edge name that must survive to the end (it becomes
            the root of the derived join tree).

    Returns:
        ``parent`` mapping: for every edge its witness at removal time, and
        ``parent[last] = None`` for the single surviving edge.  ``None`` if
        the query is cyclic.
    """
    if keep_last is not None and keep_last not in query:
        raise QueryError(f"unknown edge {keep_last!r}")
    remaining = dict(query.edges)
    parent: dict[str, str | None] = {}
    while len(remaining) > 1:
        removed_one = False
        for name in sorted(remaining):
            if name == keep_last:
                continue
            e = remaining[name]
            shared: set[str] = set()
            for other, attrs in remaining.items():
                if other != name:
                    shared |= e & attrs
            witness = None
            for other in sorted(remaining):
                if other != name and shared <= remaining[other]:
                    witness = other
                    break
            if witness is not None:
                parent[name] = witness
                del remaining[name]
                removed_one = True
                break
        if not removed_one:
            return None
    last = next(iter(remaining))
    parent[last] = None
    return parent


@dataclass
class JoinTree:
    """A rooted join tree (or forest glued at an arbitrary root) of a query.

    Attributes:
        query: The underlying hypergraph.
        root: Name of the root edge.
        parent: ``parent[edge]`` is the parent edge name (``None`` for root).
        children: ``children[edge]`` lists child edge names, sorted.
    """

    query: Hypergraph
    root: str
    parent: dict[str, str | None]
    children: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.children:
            self.children = {n: [] for n in self.parent}
            for n, par in self.parent.items():
                if par is not None:
                    self.children[par].append(n)
            for n in self.children:
                self.children[n].sort()

    # ------------------------------------------------------------------
    def nodes(self) -> list[str]:
        return list(self.parent)

    def leaves(self) -> list[str]:
        return [n for n, ch in self.children.items() if not ch]

    def bottom_up(self) -> list[str]:
        """Nodes ordered so every node appears before its parent."""
        order: list[str] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(self.children[node])
        order.reverse()
        return order

    def top_down(self) -> list[str]:
        """Nodes ordered so every node appears after its parent."""
        return list(reversed(self.bottom_up()))

    def sweeps(self) -> list[tuple[str, str, str]]:
        """The full reducer's semi-joins in order, as ``(target, source,
        sweep)``: each parent filtered by its children leaf-up
        (``"up"``), then each child by its parent root-down (``"down"``)."""
        up = [(self.parent[n], n, "up") for n in self.bottom_up() if self.parent[n] is not None]
        down = [(c, n, "down") for n in self.top_down() for c in self.children[n]]
        return up + down

    def depth(self, node: str) -> int:
        d = 0
        cur: str | None = node
        while cur is not None and cur != self.root:
            cur = self.parent[cur]
            d += 1
        return d

    def subtree(self, node: str) -> set[str]:
        """All nodes in the subtree rooted at ``node`` (inclusive)."""
        seen: set[str] = set()
        stack = [node]
        while stack:
            cur = stack.pop()
            seen.add(cur)
            stack.extend(self.children[cur])
        return seen

    def separator(self, node: str) -> frozenset[str]:
        """Attributes shared between ``node`` and its parent (empty at root)."""
        par = self.parent[node]
        if par is None:
            return frozenset()
        return self.query.attrs_of(node) & self.query.attrs_of(par)

    def internal_nodes_with_leaf_children(self) -> list[str]:
        """Internal nodes all of whose children are leaves (paper Section 5).

        At least one such node exists in any tree with >= 2 nodes: take a
        deepest internal node.
        """
        result = []
        for n, ch in self.children.items():
            if ch and all(not self.children[c] for c in ch):
                result.append(n)
        return result

    def validate(self) -> None:
        """Check the running-intersection (coherence) property.

        Raises:
            QueryError: If some attribute's nodes do not form a connected
                subtree.
        """
        for attr in self.query.attributes:
            holders = {n for n in self.parent if attr in self.query.attrs_of(n)}
            if not holders:
                continue
            # The highest holder is the one whose parent does not hold attr.
            tops = [n for n in holders if self.parent[n] is None or self.parent[n] not in holders]
            if len(tops) != 1:
                raise QueryError(
                    f"attribute {attr!r} occupies a disconnected node set "
                    f"{sorted(holders)} in join tree of {self.query.name}"
                )
            # Connectivity: every holder must reach the top within holders.
            top = tops[0]
            for n in holders:
                cur: str | None = n
                while cur != top:
                    cur = self.parent[cur]  # type: ignore[assignment]
                    if cur is None or (cur not in holders and cur != top):
                        raise QueryError(
                            f"attribute {attr!r} disconnected at {n!r} in join "
                            f"tree of {self.query.name}"
                        )

    def highest_node_with(self, attr: str) -> str:
        """``TOP(x)``: the unique highest tree node containing ``attr``."""
        holders = [n for n in self.parent if attr in self.query.attrs_of(n)]
        if not holders:
            raise QueryError(f"attribute {attr!r} not in query")
        best = holders[0]
        best_depth = self.depth(best)
        for n in holders[1:]:
            d = self.depth(n)
            if d < best_depth:
                best, best_depth = n, d
        return best


def join_tree(query: Hypergraph, root: str | None = None) -> JoinTree:
    """Build a join tree of an acyclic query via GYO ear decomposition.

    Args:
        query: An acyclic hypergraph (disconnected queries are glued into a
            single tree; the glue edges carry empty separators).
        root: Optional edge name to use as the tree root.

    Raises:
        CyclicQueryError: If the query is cyclic.
    """
    parent = gyo_reduction(query, keep_last=root)
    if parent is None:
        raise CyclicQueryError(f"query {query.name} is cyclic; no join tree exists")
    actual_root = next(n for n, par in parent.items() if par is None)
    tree = JoinTree(query=query, root=actual_root, parent=parent)
    tree.validate()
    return tree
