"""Dangling-tuple removal: the distributed full reducer.

A constant number of semi-joins along a join tree removes every tuple that
does not participate in any join result (Yannakakis [34]; paper Section 2).
Linear load per semi-join, O(1) rounds total — this is the preprocessing
step of every multi-round algorithm in the paper.

Substrate interplay (see :mod:`repro.mpc.substrate` and DESIGN.md): every
semi-join returns a *fresh* ``DistRelation``, so sweeps never see a stale
sorted run, while the filter side of the down sweep — one parent filtering
all of its children — keeps its cached projected keys and sorted runs warm
across consecutive semi-joins.
"""

from __future__ import annotations

from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.mpc.primitives import semi_join
from repro.query.hypergraph import Hypergraph, join_tree

__all__ = ["remove_dangling", "reduce_instance"]


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


def reduce_instance(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    label: str = "reduce",
) -> tuple[Hypergraph, dict[str, DistRelation]]:
    """Apply the reduce procedure to a dangling-free distributed instance.

    Once dangling tuples are gone, a relation whose edge is contained in
    another edge no longer constrains the join (its tuples are exactly the
    projections of the containing relation), so it can be dropped — paper
    Section 3.2, footnote 7.  A defensive semi-join keeps the containing
    relation consistent even if the caller skipped dangling removal.
    :func:`repro.core.yannakakis.yannakakis_mpc` applies the same step
    right after its own full reducer, where it needs no semi-join.

    Returns:
        ``(reduced_query, reduced_relations)``.
    """
    reduced_query, witness = query.reduce()
    out = dict(rels)
    for removed, survivor in witness.items():
        out[survivor] = semi_join(group, out[survivor], out[removed], f"{label}/fold")
        del out[removed]
    return reduced_query, out
