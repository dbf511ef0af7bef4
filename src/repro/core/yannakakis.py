"""The MPC Yannakakis algorithm: load O(IN/p + OUT/p) (paper Section 4.1).

Full reducer (dangling-tuple removal) followed by pairwise output-optimal
binary joins.  In the RAM model the join order is irrelevant; in MPC it is
not — intermediate results are *shuffled* into the next join, so an
OUT-sized intermediate costs OUT/p load.  The plan parameter exposes that
choice, which the Figure 3 experiment exploits.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.core.binary_join import binary_join
from repro.core.common import canonical_attrs
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

    Args:
        group: Server group to run on.
        query: An acyclic hypergraph.
        rels: Distributed relations (may carry payload columns).
        plan: Pairwise join order; defaults to a join-tree fold.  The plan
            must mention every relation exactly once.
        reduce_first: Run the full reducer first (the paper's algorithm
            always does; disable only to demonstrate its necessity).

    Returns:
        The join results in canonical schema order.
    """
    if plan is None:
        plan = default_plan(query)
    leaves = _plan_leaves(plan)
    if sorted(leaves) != sorted(query.edge_names):
        raise QueryError(
            f"plan relations {sorted(leaves)} != query relations "
            f"{sorted(query.edge_names)}"
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

    result = run(plan)
    return result.aligned(canonical_attrs([result.attrs]), name)
