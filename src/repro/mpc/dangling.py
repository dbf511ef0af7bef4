"""Dangling-tuple removal: the distributed full reducer.

A constant number of semi-joins along a join tree removes every tuple that
does not participate in any join result (Yannakakis [34]; paper Section 2).
Linear load per semi-join, O(1) rounds total — this is the preprocessing
step of every multi-round algorithm in the paper.

The reduce step that follows it has one rule, :func:`reduced_query`:
a contained relation without payload columns is dropped, and nothing
moves, because the full reducer already left its container holding only
tuples it allows.  Yannakakis (:func:`repro.core.yannakakis.yannakakis_mpc`)
and :func:`reduce_instance` (Sections 3.2 and 5.1) both apply it.

Substrate interplay (see :mod:`repro.mpc.substrate` and DESIGN.md): every
semi-join returns a *fresh* ``DistRelation``, so sweeps never see a stale
sorted run, while the filter side of the down sweep — one parent filtering
all of its children — keeps its cached projected keys and sorted runs warm
across consecutive semi-joins.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.mpc.primitives import semi_join
from repro.query.hypergraph import Hypergraph, join_tree

__all__ = ["remove_dangling", "reduce_instance", "reduced_query"]


def remove_dangling(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    label: str = "dangling",
) -> dict[str, DistRelation]:
    """Two semi-join sweeps over a join tree (leaf-up, then root-down).

    Returns a new relation mapping in which every remaining tuple extends to
    at least one full join result.
    """
    out = dict(rels)
    for target, source, sweep in join_tree(query).sweeps():
        out[target] = semi_join(group, out[target], out[source], f"{label}/{sweep}")
    return out


def reduced_query(query: Hypergraph, rels: Mapping[str, Any]) -> Hypergraph:
    """The query the reduce step leaves: the one rule for which relations
    it drops.

    Once dangling tuples are gone, a relation whose edge another edge
    contains (``query.reduce()``) no longer constrains the join: its tuples
    are exactly the projections of its container (paper Section 3.2,
    footnote 7), so it is dropped, unless it carries payload (``#...``)
    columns, which are not a projection of anything.
    """
    return query.without_edges(
        n for n in query.reduce()[1]
        if not any(a.startswith("#") for a in rels[n].attrs)
    )


def reduce_instance(
    query: Hypergraph, rels: dict[str, DistRelation]
) -> tuple[Hypergraph, dict[str, DistRelation]]:
    """Apply the reduce step to a dangling-free distributed instance: the
    relations :func:`reduced_query` drops leave, and nothing moves.

    The caller runs :func:`remove_dangling` first; then a container already
    holds exactly the tuples its contained relations allow.
    :func:`repro.core.yannakakis.yannakakis_mpc` applies the same rule
    right after its own full reducer.

    Returns:
        ``(reduced_query, reduced_relations)``.
    """
    reduced = reduced_query(query, rels)
    return reduced, {n: rel for n, rel in rels.items() if n in reduced}
