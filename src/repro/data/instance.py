"""Instances: a set of relations matching a query hypergraph.

An :class:`Instance` pairs a :class:`~repro.query.hypergraph.Hypergraph`
with one :class:`~repro.data.relation.Relation` per hyperedge, and exposes
the statistics the paper's algorithms and bounds consume: the input size
``IN``, the output size ``OUT`` (computed by the RAM oracle and cached),
degree information, and dangling-tuple structure.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.data.relation import Relation, Row
from repro.errors import InstanceError
from repro.query.hypergraph import Hypergraph, join_tree

__all__ = ["Instance"]


class Instance:
    """Relations for every edge of a query.

    Args:
        query: The join hypergraph.
        relations: Mapping edge name -> relation.  Each relation's attribute
            set must equal its edge's attribute set.

    Raises:
        InstanceError: On missing/extra relations or schema mismatches.
    """

    def __init__(self, query: Hypergraph, relations: Mapping[str, Relation]) -> None:
        self.query = query
        missing = set(query.edge_names) - set(relations)
        extra = set(relations) - set(query.edge_names)
        if missing or extra:
            raise InstanceError(
                f"instance/query mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        self.relations: dict[str, Relation] = {}
        for name in query.edge_names:
            rel = relations[name]
            if set(rel.attrs) != set(query.attrs_of(name)):
                raise InstanceError(
                    f"relation {name!r} attrs {rel.attrs} != edge attrs "
                    f"{sorted(query.attrs_of(name))}"
                )
            self.relations[name] = rel
        self._out_size: int | None = None

    # ------------------------------------------------------------------
    @property
    def input_size(self) -> int:
        """``IN``: total number of tuples across all relations."""
        return sum(len(r) for r in self.relations.values())

    def __getitem__(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise InstanceError(f"no relation {name!r} in instance") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self.relations)

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}:{len(r)}" for n, r in self.relations.items())
        return f"Instance<{self.query.name}; IN={self.input_size}; {sizes}>"

    @property
    def annotated(self) -> bool:
        return any(r.annotated for r in self.relations.values())

    # ------------------------------------------------------------------
    def output_size(self) -> int:
        """``OUT``: number of join results (RAM oracle; cached)."""
        if self._out_size is None:
            from repro.ram.yannakakis import join_size

            self._out_size = join_size(self)
        return self._out_size

    def without_dangling(self) -> "Instance":
        """Full-reducer pass in RAM: drop tuples not in any join result.

        Two semi-join sweeps over a join tree (leaf-to-root, then
        root-to-leaf), exactly the Yannakakis preprocessing (paper
        Section 2 / Section 4.1).  Annotations are preserved (semi-joins
        only filter).
        """
        tree = join_tree(self.query)
        rels = dict(self.relations)

        def semijoin(target: str, source: str) -> None:
            shared = tuple(
                sorted(self.query.attrs_of(target) & self.query.attrs_of(source))
            )
            # Across a disconnected tree edge every key is ``()``, so only
            # the source's emptiness propagates.
            src, tgt = rels[source], rels[target]
            keys = set(map(src.key_of(shared), src.rows))
            key = tgt.key_of(shared)
            keep = [i for i, row in enumerate(tgt.rows) if key(row) in keys]
            if len(keep) < len(tgt):
                rels[target] = tgt.take(keep)

        for node in tree.bottom_up():
            par = tree.parent[node]
            if par is not None:
                semijoin(par, node)
        for node in tree.top_down():
            for child in tree.children[node]:
                semijoin(child, node)
        reduced = Instance(self.query, rels)
        reduced._out_size = self._out_size
        return reduced

    def is_dangling_free(self) -> bool:
        """Whether every tuple participates in at least one join result."""
        reduced = self.without_dangling()
        return all(
            len(reduced.relations[n]) == len(self.relations[n]) for n in self.relations
        )

    # ------------------------------------------------------------------
    def degrees(self, edge_name: str, key_attrs: tuple[str, ...]) -> dict[Row, int]:
        """Degrees of ``key_attrs`` values within one relation."""
        return self[edge_name].degrees(key_attrs)

    def max_degree(self, edge_name: str, key_attrs: tuple[str, ...]) -> int:
        degs = self.degrees(edge_name, key_attrs)
        return max(degs.values(), default=0)

    def with_uniform_annotations(self, semiring, value=None) -> "Instance":
        """Annotate every relation uniformly (``semiring.one`` by default)."""
        return Instance(
            self.query,
            {
                n: r.with_annotations(semiring, value)
                for n, r in self.relations.items()
            },
        )

    def subset(self, edge_names: list[str] | frozenset[str]) -> "Instance":
        """Sub-instance over a subset of edges (for ``Q(R, S)`` statistics)."""
        sub_query = Hypergraph(
            {n: self.query.attrs_of(n) for n in edge_names},
            name=f"{self.query.name}-sub",
        )
        return Instance(sub_query, {n: self.relations[n] for n in edge_names})
