"""MPC-aware join-order planning for the Yannakakis algorithm.

Section 4.1's observation, turned into a feature: in the RAM model the
Yannakakis join order never matters asymptotically, but in MPC a plan that
shuffles a large intermediate result pays its size divided by p.
:func:`price_fold_orders` enumerates the join-tree-consistent fold orders,
*prices* each one by its maximum intermediate join size, and returns the
best plan together with the best/worst spread.

Pricing is exact and runs in RAM on the coordinator's copy of the
instance: the sizes are the ones Corollary 4's linear-load count
(:func:`~repro.core.aggregates.mpc_count`) reports over the dangling-free
prefix, but choosing a plan communicates nothing and charges no ledger.

The paper proves no single order is good on every instance (the Figure 3
doubled trap) — the returned quality spread exposes exactly that gap so
callers can decide between a planned Yannakakis run and the Section
4.2/5.1 heavy-light decomposition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Callable

from repro.core.yannakakis import Plan, left_deep_plan
from repro.data.instance import Instance
from repro.query.hypergraph import Hypergraph, join_tree

__all__ = ["PlanChoice", "enumerate_fold_orders", "price_fold_orders"]


@dataclass(frozen=True)
class PlanChoice:
    """A priced join plan.

    Attributes:
        plan: The nested pairwise plan for
            :func:`repro.core.yannakakis.yannakakis_mpc`.
        order: The relation fold order the plan encodes.
        max_intermediate: The largest intermediate join size along the plan
            (the quantity that drives MPC load).
        intermediates: ``intermediates[i]`` is the join size of
            ``order[:i + 2]``; the final join (OUT under every order) is
            not listed.
    """

    plan: Plan
    order: tuple[str, ...]
    max_intermediate: int
    intermediates: tuple[int, ...]


def enumerate_fold_orders(query: Hypergraph, limit: int = 64) -> list[tuple[str, ...]]:
    """Join-tree-consistent left-deep orders (connected prefixes).

    Every prefix of a returned order induces a connected subtree of a join
    tree, so each pairwise join shares a separator (no accidental
    Cartesian blowups).  Enumeration is capped at ``limit`` orders —
    plenty for the constant-size queries the paper considers.
    """
    tree = join_tree(query)
    names = set(query.edge_names)
    neighbors: dict[str, set[str]] = {n: set() for n in names}
    for n in names:
        par = tree.parent[n]
        if par is not None:
            neighbors[n].add(par)
            neighbors[par].add(n)

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


def _prefix_sizer(query: Hypergraph, instance: Instance) -> Callable[[frozenset[str]], int]:
    """``size(prefix)``: the join size of the dangling-free relations in a
    connected set of join-tree nodes.

    Counting Yannakakis restricted to the prefix: each relation's rows
    carry the number of results of the prefix's part of their subtree, and
    a node sends its parent those counts summed per separator key.  A
    message depends only on (node, prefix ∩ the node's subtree), so it is
    computed once for all the prefixes that agree there, and a new prefix
    costs one pass over its top relation.
    """
    tree = join_tree(query)
    reduced = instance.without_dangling().relations
    subtree = {n: frozenset(tree.subtree(n)) for n in reduced}
    # Separator keys per row, extracted once: up[n] from n's own rows,
    # down[n] from its parent's rows.
    up: dict[str, list] = {}
    down: dict[str, list] = {}
    for node, par in tree.parent.items():
        if par is not None:
            sep = tuple(sorted(tree.separator(node)))
            up[node] = list(map(reduced[node].key_of(sep), reduced[node].rows))
            down[node] = list(map(reduced[par].key_of(sep), reduced[par].rows))

    def weights(node: str, inside: frozenset[str]) -> list[int] | None:
        """Per row of ``node``, the results of ``inside`` it extends to
        (``None``: no child inside, every row counts once).  After the
        full reducer every row finds its key in every child's message."""
        out = None
        for child in tree.children[node]:
            if child in inside:
                msg = message(child, inside & subtree[child])
                col = [msg[k] for k in down[child]]
                out = col if out is None else [a * b for a, b in zip(out, col)]
        return out

    @cache
    def message(node: str, inside: frozenset[str]) -> dict:
        w = weights(node, inside)
        if w is None:
            return Counter(up[node])
        msg: dict = {}
        for k, c in zip(up[node], w):
            msg[k] = msg.get(k, 0) + c
        return msg

    @cache
    def size(prefix: frozenset[str]) -> int:
        top = next(n for n in prefix if tree.parent[n] not in prefix)
        w = weights(top, prefix)
        return len(reduced[top]) if w is None else sum(w)

    return size


def price_fold_orders(
    query: Hypergraph, instance: Instance, limit: int = 64
) -> tuple[PlanChoice, dict[str, int]]:
    """The fold order minimizing the largest intermediate join, and the
    best/worst spread over all orders, from one pricing pass.

    Every connected prefix of every enumerated order is sized exactly
    (see :func:`_prefix_sizer`); the first order attaining the minimum
    wins.  The gap between ``best`` and ``worst`` is Section 4.1's
    join-order sensitivity; when even ``best`` is OUT-sized (the
    doubled-trap phenomenon), switching to the Section 4.2/5.1
    decomposition is the right move.  A query of at most two relations has
    no intermediate, so nothing is reduced or counted for it.

    Raises:
        CyclicQueryError: If the query is cyclic (a :class:`QueryError`).
    """
    orders = enumerate_fold_orders(query, limit=limit)
    size = _prefix_sizer(query, instance) if len(query) > 2 else None
    best: PlanChoice | None = None
    worsts: list[int] = []
    for order in orders:
        # The final join's size is OUT for every order: not priced.
        sizes = tuple(size(frozenset(order[:k])) for k in range(2, len(order)))
        worst = max(sizes, default=0)
        worsts.append(worst)
        if best is None or worst < best.max_intermediate:
            best = PlanChoice(left_deep_plan(order), order, worst, sizes)
    assert best is not None
    return best, {"best": min(worsts), "worst": max(worsts), "orders": len(worsts)}
