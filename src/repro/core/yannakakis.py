"""The MPC Yannakakis algorithm: load O(IN/p + OUT/p) (paper Section 4.1).

Full reducer (dangling-tuple removal), then the reduce step (Section 3.2,
footnote 7): a relation whose attributes another relation contains is, once
dangling tuples are gone, a projection of its container — it adds no column
and removes no result — so it is dropped, not joined.  The survivors of
each connected component are folded by pairwise output-optimal binary
joins, and the component results meet in one Cartesian product at the
end (:func:`repro.core.hypercube.hypercube_cartesian`): no fold crosses
the empty separator that links two components in a join tree, so no
intermediate carries a product it does not need, and a small component
(the broom's one-row ``R6(H)``) is broadcast once.  In the RAM model the
join order is irrelevant; in MPC it is not — intermediate results are
*shuffled* into the next join, so an OUT-sized intermediate costs OUT/p
load.  The plan parameter exposes that choice, which the Figure 3
experiment exploits.

The plan contract: a plan names every relation that is joined, once; it
may also name the contained relations, which are skipped after the
reducer (so :func:`default_plan` of the full query still works).  Each
component folds along the plan restricted to it, and the components enter
the product in the order the plan first names them.  Without
the reducer (``reduce_first=False``) nothing is dropped and a plan names
every relation.  A relation carrying payload (``#...``) columns is never
dropped: its payload is not a projection of anything.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.core.binary_join import binary_join
from repro.core.common import canonical_attrs
from repro.core.hypercube import hypercube_cartesian
from repro.errors import QueryError
from repro.mpc.dangling import remove_dangling
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.query.hypergraph import Hypergraph, join_tree

__all__ = ["yannakakis_mpc", "Plan", "default_plan", "left_deep_plan"]

#: A join plan: either a relation name (leaf) or a pair of sub-plans.
Plan = Union[str, tuple]


def default_plan(query: Hypergraph) -> Plan:
    """Fold leaves into parents along a join tree (bottom-up)."""
    tree = join_tree(query)

    def build(node: str) -> Plan:
        plan: Plan = node
        for child in tree.children[node]:
            plan = (plan, build(child))
        return plan

    return build(tree.root)


def left_deep_plan(order: Sequence[str]) -> Plan:
    """A left-deep plan joining relations in the given order."""
    if not order:
        raise QueryError("empty plan order")
    plan: Plan = order[0]
    for name in order[1:]:
        plan = (plan, name)
    return plan


def _plan_leaves(plan: Plan) -> list[str]:
    if isinstance(plan, str):
        return [plan]
    left, right = plan
    return _plan_leaves(left) + _plan_leaves(right)


def _without(plan: Plan, dropped: set[str]) -> Plan | None:
    """``plan`` with the leaves in ``dropped`` removed (``None``: all were)."""
    if isinstance(plan, str):
        return None if plan in dropped else plan
    left, right = (_without(side, dropped) for side in plan)
    if left is None:
        return right
    if right is None:
        return left
    return (left, right)


def yannakakis_mpc(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    plan: Plan | None = None,
    label: str = "yannakakis",
    reduce_first: bool = True,
    name: str = "result",
) -> DistRelation:
    """Compute an acyclic join with the Yannakakis strategy.

    After the full reducer, every relation ``query.reduce()`` reports as
    contained is dropped (it is then a projection of its container, so no
    semi-join runs for it either), and only the survivors are folded: each
    connected component along the plan restricted to it, then one product
    of the component results (``{label}/product``).

    Args:
        group: Server group to run on.
        query: An acyclic hypergraph.
        rels: Distributed relations (may carry payload columns).
        plan: Pairwise join order; defaults to a join-tree fold of the
            relations that are joined.  The plan must name each of them
            exactly once, and may name the dropped contained relations.
        reduce_first: Run the full reducer first (the paper's algorithm
            always does; disable only to demonstrate its necessity).
            Without it every relation is joined.

    Returns:
        The join results in canonical schema order.
    """
    dropped: set[str] = set()
    if reduce_first:
        dropped = {
            n for n in query.reduce()[1]
            if not any(a.startswith("#") for a in rels[n].attrs)
        }
    joined = query if not dropped else Hypergraph(
        {n: query.attrs_of(n) for n in query.edge_names if n not in dropped},
        name=query.name,
    )
    if plan is None:
        plan = default_plan(joined)
    leaves = _plan_leaves(plan)
    kept = sorted(n for n in leaves if n not in dropped)
    if len(set(leaves)) != len(leaves) or kept != sorted(joined.edge_names):
        raise QueryError(
            f"plan relations {sorted(leaves)} must name each of "
            f"{sorted(joined.edge_names)} once (and may name the contained "
            f"{sorted(dropped)})"
        )
    working = dict(rels)
    if reduce_first:
        working = remove_dangling(group, query, working, f"{label}/reduce")

    counter = [0]

    def run(node: Plan) -> DistRelation:
        if isinstance(node, str):
            return working[node]
        left, right = node
        lrel = run(left)
        rrel = run(right)
        counter[0] += 1
        return binary_join(
            group, lrel, rrel, label=f"{label}/join{counter[0]}"
        )

    # Components in the order the plan first names them; no fold crosses
    # the empty separator between two of them.
    rank = {n: i for i, n in enumerate(leaves)}
    components = sorted(joined.connected_components(), key=lambda c: min(map(rank.get, c)))
    folds = [
        run(_without(plan, dropped | set(joined.edge_names) - comp))
        for comp in components
    ]
    result = folds[0] if len(folds) == 1 else hypercube_cartesian(
        group, folds, label=f"{label}/product"
    )
    return result.aligned(canonical_attrs([result.attrs]), name)
