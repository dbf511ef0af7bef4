"""The MPC Yannakakis algorithm: load O(IN/p + OUT/p) (paper Section 4.1).

Full reducer (dangling-tuple removal), then the reduce step (Section 3.2,
footnote 7): a relation whose attributes another relation contains is, once
dangling tuples are gone, a projection of its container — it adds no column
and removes no result — so it is dropped, not joined
(:func:`repro.mpc.dangling.reduced_query`, the one rule every reduce step
applies).  The survivors of each connected component are folded by
pairwise output-optimal binary joins, and the component results meet in
one Cartesian product at the end
(:func:`repro.core.hypercube.hypercube_cartesian`): no fold crosses the
empty separator that links two components in a join tree, so no
intermediate carries a product it does not need, and a small component
(the broom's one-row ``R6(H)``) is broadcast once.  In the RAM model the
join order is irrelevant; in MPC it is not — intermediate results are
*shuffled* into the next join, so an OUT-sized intermediate costs OUT/p
load.  The plan exposes that choice, which the Figure 3 experiment
exploits.

A plan is a fold order: a sequence of relation names, each joined once,
left-deep.  It names every relation that is joined; it may also name the
contained relations, which are skipped after the reducer.  Each component
folds along the order restricted to it, and the components enter the
product in the order the plan first names them.  Without a plan the fold
runs the first connected order (:func:`component_orders`) of the
relations it joins, the order the chooser's enumeration lists first;
only the chooser (:func:`repro.core.planner.choose`) prices orders.
Without the reducer (``reduce_first=False``) nothing is dropped and a
plan names every relation.  A relation carrying payload (``#...``)
columns is never dropped: its payload is not a projection of anything.
"""

from __future__ import annotations

from itertools import count
from typing import Sequence

from repro.core.binary_join import binary_join
from repro.core.common import canonical_attrs
from repro.core.hypercube import hypercube_cartesian
from repro.errors import QueryError
from repro.mpc.dangling import reduced_query, remove_dangling
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.query.hypergraph import Hypergraph, join_tree

__all__ = ["yannakakis_mpc", "component_orders"]


def component_orders(query: Hypergraph, limit: int) -> list[list[tuple[str, ...]]]:
    """Per connected component of ``query`` (by least relation name), its
    connected left-deep orders, at most ``limit`` of them.

    Every prefix of an order induces a connected subtree of the join tree,
    so each pairwise join shares a separator (no accidental Cartesian
    blowups).  Orders grow from the least relation name through the least
    name on the frontier first.
    """
    tree = join_tree(query)
    neighbors: dict[str, set[str]] = {n: set() for n in query.edge_names}
    for n, par in tree.parent.items():
        # A glue edge between components carries an empty separator.
        if par is not None and tree.separator(n):
            neighbors[n].add(par)
            neighbors[par].add(n)

    def connected(names: frozenset[str]) -> list[tuple[str, ...]]:
        orders: list[tuple[str, ...]] = []

        def grow(prefix: list[str], frontier: set[str]) -> None:
            if len(orders) >= limit:
                return
            if len(prefix) == len(names):
                orders.append(tuple(prefix))
                return
            for nxt in sorted(frontier):
                new_frontier = (frontier | neighbors[nxt]) - set(prefix) - {nxt}
                grow(prefix + [nxt], new_frontier)

        for start in sorted(names):
            grow([start], set(neighbors[start]))
        return orders

    return [connected(c) for c in sorted(query.connected_components(), key=min)]


def yannakakis_mpc(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    plan: Sequence[str] | None = None,
    label: str = "yannakakis",
    reduce_first: bool = True,
) -> DistRelation:
    """Compute an acyclic join with the Yannakakis strategy.

    After the full reducer, every relation :func:`reduced_query` drops is
    gone (it is then a projection of its container, so no semi-join runs
    for it either), and only the survivors are folded: each connected
    component along the plan restricted to it, then one product of the
    component results (``{label}/product``).

    Args:
        group: Server group to run on.
        query: An acyclic hypergraph.
        rels: Distributed relations (may carry payload columns).
        plan: Fold order; defaults to the first connected order of the
            relations that are joined.  It must name each of them exactly
            once, and may name the dropped contained relations.
        reduce_first: Run the full reducer first (the paper's algorithm
            always does; disable only to demonstrate its necessity).
            Without it every relation is joined.

    Returns:
        The join results in canonical schema order.
    """
    joined = reduced_query(query, rels) if reduce_first else query
    dropped = set(query.edge_names) - set(joined.edge_names)
    if plan is None:
        plan = sum((orders[0] for orders in component_orders(joined, 1)), ())
    kept = [n for n in plan if n not in dropped]
    if len(set(plan)) != len(plan) or sorted(kept) != sorted(joined.edge_names):
        raise QueryError(
            f"plan relations {sorted(plan)} must name each of "
            f"{sorted(joined.edge_names)} once (and may name the contained "
            f"{sorted(dropped)})"
        )
    working = dict(rels)
    if reduce_first:
        working = remove_dangling(group, query, working, f"{label}/reduce")

    # Components in the order the plan first names them, each folded along
    # the plan restricted to it; no fold crosses the empty separator
    # between two of them.
    component = {n: i for i, comp in enumerate(joined.connected_components()) for n in comp}
    orders: dict[int, list[str]] = {}
    for name in kept:
        orders.setdefault(component[name], []).append(name)
    joins = count(1)
    folds = []
    for first, *rest in orders.values():
        acc = working[first]
        for name in rest:
            acc = binary_join(group, acc, working[name], label=f"{label}/join{next(joins)}")
        folds.append(acc)
    result = folds[0] if len(folds) == 1 else hypercube_cartesian(
        group, folds, label=f"{label}/product"
    )
    return result.aligned(canonical_attrs([result.attrs]), "result")
