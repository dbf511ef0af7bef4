"""Choosing a join algorithm, and a Yannakakis fold order, by predicted load.

Section 4.1's observation, turned into a feature: in the RAM model the
Yannakakis join order never matters asymptotically, but in MPC a plan that
shuffles a large intermediate result pays for it.
:func:`price_fold_orders` enumerates the join-tree-consistent fold orders
and *prices* each one by the load :func:`choose` ranks the candidates
with.  The orders are those of the *reduced* query: after the full reducer
a contained relation is a projection of its container, and Yannakakis
drops it instead of joining it (:func:`repro.core.yannakakis.yannakakis_mpc`).
Yannakakis folds each connected component on its own and takes one
product of the results, so an order is one connected order per component.

The paper's output-optimal algorithms (Theorems 3, 5, 7) beat that planned
Yannakakis run only asymptotically, once ``IN >= p^2`` or ``p^3``; below
it their OUT counts, degree splits and sub-joins cost more than they save.
So no query class settles which algorithm moves the least data:
:func:`choose` prices every applicable *candidate* — Yannakakis along its
priced fold order, the Section 5.1 acyclic algorithm, and where the shape
admits them the line-3 (Section 4.2) and r-hierarchical (Section 3.2)
algorithms — and returns the cheapest.

One quantity ranks both: the predicted ``LoadReport.load``, the units the
busiest server receives, from the units the candidate's control flow
would post per server, walked over exact counts.  The walk calls the
algorithms' own rules rather than restating them:
:func:`~repro.core.binary_join.budgets`,
:func:`~repro.core.binary_join.key_weight` and
:func:`~repro.core.binary_join.heavy_layout`; the PSRS kernel
(:func:`~repro.mpc.substrate._arrange`) and packing's placement
(:func:`~repro.mpc.packing.place_items`);
:func:`~repro.core.hypercube.cartesian_route`;
:func:`~repro.core.line3.line3_tau`;
:func:`~repro.core.acyclic.split_point`;
:func:`~repro.core.rhierarchical.load_budget`,
:func:`~repro.core.rhierarchical.servers` and
:func:`~repro.core.rhierarchical.grid_dims`; and
:meth:`~repro.query.hypergraph.JoinTree.sweeps` for the full reducer.

Rows are placed where the algorithms put them.  A binary join's one sort
is the kernel itself, run on the rows each server holds per key and
side; its light keys go where packing places their groups, its heavy
keys over their rectangles, and its result stays there, so a later pass
on the same key moves what those cells do not already hold, and a pass on
another key follows each row to the server its old key put it on,
through the join tree.  Other passes sit on ranges of their key, each
code's rows spread over its stretch of the ranges, and move what the old
and new stretches do not share; a pass over rows that sit on no key moves
``(p-1)/p`` of them.  A step whose placement is not modelled (samples,
broadcasts, boundary trips, the Section 5.1 and r-hierarchical shuffles)
posts evenly.  A walk stops once its busiest server passes the least load
already priced (it cannot win); its price is where it stopped.

Everything runs in RAM on the coordinator's copy of the instance over one
:class:`Statistics` object — integer codes of every attribute, their key
order, the full reducer's survivors, per-key degree counts and the prefix
messages of a counting Yannakakis — and communicates nothing: no
cluster, no backend round, no ledger charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations, count, islice, product
from typing import Sequence

import numpy as np

from repro.core.acyclic import _fold_order, split_point
from repro.core.binary_join import budgets, heavy_layout, key_weight
from repro.core.hypercube import cartesian_route
from repro.core.line3 import is_line3, line3_tau
from repro.core.rhierarchical import grid_dims, load_budget, servers
from repro.core.yannakakis import component_orders
from repro.data.instance import Instance
from repro.mpc.dangling import reduced_query
from repro.mpc.packing import place_items
from repro.mpc.substrate import _arrange, pick_splitters, rank_keys, sample_count
from repro.query.classify import is_r_hierarchical
from repro.query.forests import attribute_forest
from repro.query.hypergraph import Hypergraph, JoinTree, join_tree

__all__ = [
    "Choice",
    "PlanChoice",
    "Statistics",
    "candidates",
    "choose",
    "enumerate_fold_orders",
    "price_fold_orders",
]


@dataclass(frozen=True)
class PlanChoice:
    """A priced fold order.

    Attributes:
        order: The fold order
            :func:`repro.core.yannakakis.yannakakis_mpc` runs: the one
            with the least predicted load.
        max_intermediate: The largest intermediate join size along the plan.
        intermediates: ``intermediates[i]`` is the join size of
            ``prefixes[i]``.
        prefixes: The priced prefixes: per connected component, in order,
            every prefix of its fold of at least two relations except the
            whole component (its join is the same under every order).
    """

    order: tuple[str, ...]
    max_intermediate: int
    intermediates: tuple[int, ...]
    prefixes: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Choice:
    """What ``algorithm="auto"`` runs on one (query, data, p).

    Attributes:
        algorithm: The candidate with the least predicted load (ties go
            to the earlier entry of ``units``).
        plan: The Yannakakis fold order with the least predicted load
            (:func:`price_fold_orders`), run when ``algorithm ==
            "yannakakis"``.
        quality: The fold orders' best/worst largest-intermediate spread.
        units: Every candidate's predicted ``LoadReport.load``; a
            candidate priced past the least stops there, and reads where
            it stopped.
    """

    algorithm: str
    plan: PlanChoice
    quality: dict[str, int]
    units: dict[str, int]


def enumerate_fold_orders(query: Hypergraph, limit: int = 64) -> list[tuple[str, ...]]:
    """Fold orders of the relations Yannakakis joins (those of
    ``query.reduce()``): one connected order per component
    (:func:`repro.core.yannakakis.component_orders`), components one after
    another.  The first is the order an unpriced Yannakakis call folds.

    No prefix crosses from one component into another:
    :func:`repro.core.yannakakis.yannakakis_mpc` folds each component on
    its own and takes one product at the end.  Enumeration is capped at
    ``limit`` orders — plenty for the constant-size queries the paper
    considers.
    """
    return [
        sum(parts, ())
        for parts in islice(product(*component_orders(query.reduce()[0], limit)), limit)
    ]


# ----------------------------------------------------------------------
# Statistics: codes, views, messages
# ----------------------------------------------------------------------

_TOKENS = count(1)


@dataclass(eq=False)
class _View:
    """Some rows of one base relation, each standing for ``w`` result rows.

    ``idx`` indexes the base relation's rows (``None``: all of them);
    ``w`` are float weights (``None``: one each).  A filtered relation is a
    view with fewer rows; a relation whose rows extend a base row by
    columns the pricing never keys on (a light fold in Section 5.1) is a
    weighted view of that base.
    """

    base: str
    idx: np.ndarray | None
    w: np.ndarray | None
    token: object = field(default_factory=lambda: next(_TOKENS))
    _memo: dict = field(default_factory=dict)


class _Tree:
    """Adjacency of a join tree: ``adj[u][v]`` is the sorted separator."""

    def __init__(self, tree: JoinTree) -> None:
        self.jt = tree
        self.adj: dict[str, dict[str, tuple[str, ...]]] = {n: {} for n in tree.parent}
        for node, par in tree.parent.items():
            if par is not None:
                sep = tuple(sorted(tree.separator(node)))
                self.adj[node][par] = self.adj[par][node] = sep


class Statistics:
    """Exact counts of one instance, shared by every candidate's price.

    Built once per (query, data): every attribute of every relation gets
    integer codes in one code space per attribute name, so a key is an
    array index and a degree count is one ``np.bincount``.  The full
    reducer runs here once (its survivors are what every candidate joins);
    its own semi-join passes are priced once and shared.  ``messages``
    memoises counting-Yannakakis messages over the reducer's survivors, the
    prefix and intermediate sizes :func:`price_fold_orders` reads.
    """

    def __init__(self, query: Hypergraph, instance: Instance) -> None:
        self.query = query
        self.instance = instance
        self._keys: dict[tuple[str, tuple[str, ...]], np.ndarray] = {}
        self._spaces: dict[tuple[str, ...], int] = {}
        #: Per one-attribute key, its distinct values in code order.
        self._values: dict[tuple[str, ...], list] = {}
        self._orders: dict[tuple[str, ...], np.ndarray] = {}
        self._sizes: dict[str, int] = {
            n: len(instance.relations[n]) for n in query.edge_names
        }
        self.tree = _Tree(join_tree(query))
        self.messages: dict[tuple, np.ndarray] = {}
        self._trees: dict[tuple, _Tree] = {}
        self._reduced: dict[str, _View] | None = None
        #: The full reducer's semi-joins: target, source, key, and each
        #: side's rows per key code.
        self.sweep: list[tuple[str, str, tuple[str, ...], np.ndarray, np.ndarray]] = []
        #: Per p, the sweep's predicted units and where it leaves each
        #: relation arranged (every candidate opens with it).
        self.opening: dict[int, tuple[float, dict]] = {}

    # -- codes ----------------------------------------------------------
    def key_codes(self, base: str, key: tuple[str, ...]) -> np.ndarray:
        """Per base row, the code of its projection on ``key`` (sorted
        attributes)."""
        got = self._keys.get((base, key))
        if got is None:
            self._encode(key)
            got = self._keys[(base, key)]
        return got

    def _encode(self, key: tuple[str, ...]) -> None:
        """Codes of ``key`` for every relation holding it, at once: a code
        space never grows after a count was taken in it."""
        rels = self.instance.relations
        holders = [n for n in self._sizes if set(key) <= set(rels[n].attrs)]
        if not key:
            for n in holders:
                self._keys[(n, key)] = np.zeros(self._sizes[n], np.int64)
            self._spaces[key] = 1
        elif len(key) == 1:
            # Each relation's own codes of the column, remapped through one
            # index over the distinct values of all of them.
            index: dict = {}
            for n in holders:
                distinct, local = rels[n].column_codes(rels[n].attrs.index(key[0]))
                if not index:  # the first relation's codes are the space's
                    index.update(zip(distinct, count()))
                    self._keys[(n, key)] = local
                    continue
                index.update(zip(set(distinct).difference(index), count(len(index))))
                remap = np.fromiter(map(index.__getitem__, distinct), np.int64, len(distinct))
                self._keys[(n, key)] = remap[local]
            self._spaces[key] = len(index)
            self._values[key] = list(index)
        else:
            # The attributes' own codes in mixed radix, compacted after
            # each attribute so the radix stays below the row count.
            inverse, width = np.zeros(sum(self._sizes[n] for n in holders), np.int64), 1
            for a in key:
                codes = np.concatenate([self.key_codes(n, (a,)) for n in holders])
                distinct, inverse = np.unique(
                    inverse * self._spaces[(a,)] + codes, return_inverse=True
                )
                width = len(distinct)
            cuts = np.cumsum([self._sizes[n] for n in holders])[:-1]
            for n, codes in zip(holders, np.split(inverse.reshape(-1), cuts)):
                self._keys[(n, key)] = codes
            self._spaces[key] = width

    def space(self, key: tuple[str, ...]) -> int:
        """How many codes keys over ``key`` can take."""
        return self._spaces[key]

    def key_order(self, key: tuple[str, ...]) -> np.ndarray:
        """The codes of ``key`` in the order a sort on ``key`` puts them:
        values ranked by :func:`~repro.mpc.substrate.rank_keys`, and a
        key of several attributes by its attributes' ranks in turn, as
        tuples compare."""
        got = self._orders.get(key)
        if got is None:
            if key not in self._spaces:
                self._encode(key)
            if len(key) < 2:
                values = self._values.get(key, [()])
                got = np.argsort(rank_keys([values])[1], kind="stable")
            else:
                holders = [n for n in self._sizes if (n, key) in self._keys]
                codes = np.concatenate([self._keys[(n, key)] for n in holders])
                first = np.unique(codes, return_index=True)[1]
                ranks = []
                for a in key:
                    rank = np.empty(self.space((a,)), np.int64)
                    rank[self.key_order((a,))] = np.arange(len(rank))
                    ranks.append(rank[np.concatenate(
                        [self.key_codes(n, (a,)) for n in holders]
                    )[first]])
                got = np.lexsort(ranks[::-1])
            self._orders[key] = got
        return got

    def spread(self, placed: "_Placed", p: int) -> tuple[np.ndarray, np.ndarray]:
        """Where ``placed``'s rows sit: per code, its column, and per
        server and column the code's share on the server (a last, zero
        column stands for every code the rows do not hold)."""
        got = placed._memo.get(p)
        if got is None:
            keys, share = placed.keys, placed.share
            if keys is None:
                order = self.key_order(placed.key)
                keys = order[placed.weight[order] > 0]
                share = _overlaps(_stretches(placed.weight[keys], p), p)
            col = np.full(len(placed.weight), len(keys))
            col[keys] = np.arange(len(keys))
            got = placed._memo[p] = (col, np.hstack([share, np.zeros((p, 1))]))
        return got

    def moved(self, placed: "_Placed", rows: np.ndarray, new: np.ndarray, p: int) -> np.ndarray:
        """The rows (``rows`` per code) each server receives when a pass on
        ``placed.key`` puts the codes, in key order, on ``p`` ranges
        balanced by the per-code weights ``new``.

        Rows on ranges sit in key order on ranges balanced by
        ``placed.weight``, each code's rows spread evenly over its stretch
        of the old and of the new ranges, in the same order: a row stays
        when both stretches put it on one server.  Rows spread per code
        stay, on each server, with the part of their code's new stretch
        there.
        """
        order = self.key_order(placed.key)
        keys = order[new[order] > 0]
        r = rows[keys]
        if not r.sum():
            return np.zeros(p)
        ys = _stretches(new[keys], p)
        mass = np.concatenate(([0.0], np.cumsum(r)))
        at = np.arange(p + 1)
        # Cumulative rows at each range boundary, a code's rows spread
        # evenly over its stretch.
        now = np.interp(at, ys, mass)
        if placed.keys is None:
            old = np.interp(at, _stretches(placed.weight[keys], p), mass)
            stay = np.maximum(
                0.0, np.minimum(old[1:], now[1:]) - np.maximum(old[:-1], now[:-1])
            )
        else:
            col, share = self.spread(placed, p)
            stay = (_overlaps(ys, p) * share[:, col[keys]] * r).sum(axis=1)
        return np.maximum(0.0, np.diff(now) - stay)

    def split(self, view: _View, spread: tuple[np.ndarray, np.ndarray],
              old: tuple[str, ...], key: tuple[str, ...], keys: np.ndarray) -> np.ndarray:
        """``view``'s rows per server and code ``keys[j]`` of ``key``, each
        row where its code of ``old`` sits (``spread``, as
        :meth:`spread` gives it)."""
        col, share = spread
        m = len(keys)
        at = np.full(self.space(key), -1)
        at[keys] = np.arange(m)
        j = at[self.codes(view, key)]
        kept = j >= 0
        w = share[:, col[self.codes(view, old)[kept]]] * self.ones(view)[kept]
        p = len(share)
        return np.bincount(
            (np.arange(p)[:, None] * m + j[kept]).ravel(), w.ravel(), minlength=p * m
        ).reshape(p, m)

    def codes(self, view: _View, key: tuple[str, ...]) -> np.ndarray:
        got = view._memo.get(key)
        if got is None:
            got = self.key_codes(view.base, key)
            if view.idx is not None:
                got = got[view.idx]
            view._memo[key] = got
        return got

    def tree_of(self, query: Hypergraph, root: str | None = None) -> _Tree:
        """The join tree of ``query`` (memoised: subsets repeat)."""
        key = (tuple((n, query.attrs_of(n)) for n in query.edge_names), root)
        got = self._trees.get(key)
        if got is None:
            got = self._trees[key] = _Tree(join_tree(query, root=root))
        return got

    def fold_tree(self) -> _Tree:
        """The join tree Yannakakis folds along: the reduced query's, whose
        nodes are the relations left once contained ones are dropped."""
        return self.tree_of(self.query.reduce()[0])

    # -- views ----------------------------------------------------------
    def rows(self, view: _View) -> int:
        return self._sizes[view.base] if view.idx is None else len(view.idx)

    def size(self, view: _View) -> float:
        """The result rows ``view`` stands for."""
        return float(self.rows(view) if view.w is None else view.w.sum())

    def ones(self, view: _View) -> np.ndarray:
        """Per row, the result rows it stands for."""
        return np.ones(self.rows(view)) if view.w is None else view.w

    def degrees(self, view: _View, key: tuple[str, ...], w: np.ndarray | None = None) -> np.ndarray:
        """Rows (or weight ``w``) of ``view`` per code of ``key``; weights
        split by server (rows x servers) count per code and server."""
        if w is None and view.w is not None and view.w.ndim == 2:
            w = view.w
        if w is not None and w.ndim == 2:
            n, p = self.space(key), w.shape[1]
            at = self.codes(view, key)[:, None] * p + np.arange(p)
            return np.bincount(at.ravel(), w.ravel(), minlength=n * p).reshape(n, p)
        if w is None:
            got = view._memo.get(("deg", key))
            if got is None:
                got = view._memo[("deg", key)] = np.bincount(
                    self.codes(view, key), view.w, minlength=self.space(key)
                ).astype(float)
            return got
        return np.bincount(self.codes(view, key), w, minlength=self.space(key))

    def filtered(self, view: _View, keep: np.ndarray, w: np.ndarray | None = None) -> _View:
        """The rows of ``view`` where ``keep`` holds (optionally reweighted)."""
        base_idx = np.flatnonzero(keep) if view.idx is None else view.idx[keep]
        w = view.w if w is None else w
        return _View(view.base, base_idx, None if w is None else w[keep])

    # -- the full reducer ---------------------------------------------
    def reduced(self) -> dict[str, _View]:
        """Dangling-free views: the full reducer's :meth:`JoinTree.sweeps`,
        as :func:`repro.mpc.dangling.remove_dangling` runs them, in RAM."""
        if self._reduced is None:
            views = {n: _View(n, None, None) for n in self.query.edge_names}
            for target, source, _sweep in self.tree.jt.sweeps():
                key = self.tree.adj[target][source]
                source_deg = self.degrees(views[source], key)
                target_deg = self.degrees(views[target], key)
                self.sweep.append((target, source, key, target_deg, source_deg))
                keep = (source_deg > 0)[self.codes(views[target], key)]
                if not keep.all():
                    views[target] = self.filtered(views[target], keep)
            self._reduced = views
        return self._reduced

    def weights(
        self, tree: _Tree, nodes: dict[str, _View], u: str,
        skip: str | None = None, memo: dict | None = None,
    ) -> np.ndarray:
        """Per row of ``nodes[u]``, the results of the join of ``nodes`` on
        ``u``'s side of the edge to ``skip`` that the row extends to."""
        w = self.ones(nodes[u])
        for v, key in tree.adj[u].items():
            if v != skip and v in nodes:
                msg = self.message(tree, nodes, v, u, memo)[self.codes(nodes[u], key)]
                # A view split by server (rows x servers) splits what it reaches.
                w = (w[:, None] if w.ndim < msg.ndim else w) * (
                    msg[:, None] if msg.ndim < w.ndim else msg
                )
        return w

    def message(
        self, tree: _Tree, nodes: dict[str, _View], v: str, u: str,
        memo: dict | None = None,
    ) -> np.ndarray:
        """Results of ``nodes`` on ``v``'s side of edge ``(v, u)``, summed
        per separator code: what a counting Yannakakis sends ``u``."""
        mkey = None
        if memo is not None:
            side = _side(tree, nodes, v, u)
            mkey = (v, u, frozenset((n, nodes[n].token) for n in side))
            got = memo.get(mkey)
            if got is not None:
                return got
        key = tree.adj[u][v]
        msg = self.degrees(nodes[v], key, self.weights(tree, nodes, v, u, memo))
        if memo is not None:
            memo[mkey] = msg
        return msg

    def join_size(self, tree: _Tree, nodes: dict[str, _View], memo: dict | None = None) -> float:
        """The join size of ``nodes``: the product of the join sizes of the
        pieces the tree connects them in, exact when no two pieces share an
        attribute (as when each piece lies in its own component)."""
        size, seen = 1.0, set()
        for root in nodes:
            if root not in seen:
                seen.update(_side(tree, nodes, root, None))
                size *= float(self.weights(tree, nodes, root, memo=memo).sum())
        return size


def _side(tree: _Tree, nodes: dict, v: str, u: str) -> list[str]:
    """The members of ``nodes`` reachable from ``v`` without crossing ``u``."""
    out, stack = [], [(v, u)]
    while stack:
        cur, prev = stack.pop()
        out.append(cur)
        stack.extend((n, cur) for n in tree.adj[cur] if n != prev and n in nodes)
    return out


def _prefix_sizer(stats: Statistics):
    """``size(prefix)``: the join size of the dangling-free relations in a
    set of the reduced query's join-tree nodes, from memoised
    messages (a message depends only on the nodes on its sender's side, so
    prefixes that agree there share it)."""
    reduced = stats.reduced()
    tree = stats.fold_tree()
    memo = stats.messages

    @cache
    def size(prefix: frozenset[str]) -> int:
        nodes = {n: reduced[n] for n in sorted(prefix)}
        return int(round(stats.join_size(tree, nodes, memo)))

    return size


def price_fold_orders(
    query: Hypergraph, instance: Instance, p: int, limit: int = 64
) -> tuple[PlanChoice, dict[str, int]]:
    """The fold order with the least predicted load on ``p`` servers, and
    the best/worst spread of the orders' largest intermediates, from one
    pricing pass.

    Every enumerated order (over the reduced query, see
    :func:`enumerate_fold_orders`) is walked by the pricer :func:`choose`
    ranks the candidates with, over one :class:`Statistics`; the first
    order attaining the least load wins.  Two orders that differ only in
    which of their first two relations opens the fold join the same two
    relations first; the first of them is walked for both.  A component
    of at most two relations keeps its first order, and a query with no
    larger component is neither reduced nor walked.  Every connected
    prefix is sized exactly on the full reducer's survivors (see
    :func:`_prefix_sizer`); the gap between the ``best`` and ``worst``
    largest intermediate is Section 4.1's join-order sensitivity.

    Raises:
        CyclicQueryError: If the query is cyclic (a :class:`QueryError`).
    """
    components = query.reduce()[0].connected_components()
    stats = Statistics(query, instance) if max(map(len, components)) > 2 else None
    return _price_orders(query, stats, p, limit)[:2]


def _price_orders(
    query: Hypergraph, stats: Statistics | None, p: int, limit: int = 64
) -> tuple[PlanChoice, dict[str, int], float | None]:
    """Each component's order with the least predicted load,
    concatenated, the spread, and the predicted load of the whole order
    when one walk priced it (one component of more than two relations),
    else ``None``.  Components are priced apart (no prefix crosses between
    them, and their folds post independently), so the best and worst
    spread is the worst component's and the orders multiply."""
    per_component = component_orders(query.reduce()[0], limit)
    size = _prefix_sizer(stats) if any(len(o[0]) > 2 for o in per_component) else None
    chosen = [orders[0] for orders in per_component]
    units: float | None = None

    def walk(bound: float | None = None) -> float:
        pricer = _Pricer(stats, p, bound)
        try:
            pricer.yannakakis(sum(chosen, ()))
        except _Over:
            return math.inf
        return pricer.load

    prefixes: tuple[tuple[str, ...], ...] = ()
    sizes: tuple[int, ...] = ()
    quality = {"best": 0, "worst": 0, "orders": 1}
    for i, orders in enumerate(per_component):
        # The component's whole join is the same under every order.
        heads = [tuple(cand[:k] for k in range(2, len(cand))) for cand in orders]
        cand_sizes = [tuple(size(frozenset(h)) for h in hs) for hs in heads]
        worsts = [max(cs, default=0) for cs in cand_sizes]
        best = 0
        if len(orders[0]) > 2:
            # Two orders that differ only in which relation opens the fold
            # join the same two relations first: the first of them stands
            # for both.  Smaller intermediates are walked first, and an
            # order past the least so far stops there.
            first: dict = {}
            for j, cand in enumerate(orders):
                first.setdefault((frozenset(cand[:2]), cand[2:]), j)
            priced: dict[int, float] = {}
            for j in sorted(first.values(), key=lambda j: (worsts[j], j)):
                chosen[i] = orders[j]
                priced[j] = walk(min(priced.values(), default=None))
            best = min(priced, key=lambda j: (priced[j], j))
            units = priced[best]
        chosen[i] = orders[best]
        prefixes += heads[best]
        sizes += cand_sizes[best]
        quality = {
            "best": max(quality["best"], min(worsts)),
            "worst": max(quality["worst"], max(worsts)),
            "orders": quality["orders"] * len(worsts),
        }
    order = sum(chosen, ())
    plan = PlanChoice(order, max(sizes, default=0), sizes, prefixes)
    return plan, quality, units if len(per_component) == 1 else None


# ----------------------------------------------------------------------
# The ledger model
# ----------------------------------------------------------------------

class _Over(Exception):
    """A walk's busiest server passed its bound: it cannot price least."""


class _Units:
    """Predicted units posted on a group of ``p`` servers with ``m``
    members (a family's replicas each post the same counts), per server
    of the root group: a step whose placement is modelled posts per
    server (``at``), any other spreads evenly (``even``, per server).
    Past ``bound`` on any server the walk stops (:class:`_Over`)."""

    def __init__(self, p: int, m: int = 1, root: "_Units | None" = None,
                 bound: float | None = None) -> None:
        self.p, self.m = p, m
        if root is None:
            self.at, self.even, self.peak, self.bound = np.zeros(p), 0.0, 0.0, bound
        self.root = root or self

    def sub(self, p: int, m: int = 1) -> "_Units":
        return _Units(p, self.m * m, self.root)

    def add(self, units: float | np.ndarray) -> None:
        """Post ``units`` (per root server when an array of that length,
        else spread evenly)."""
        root = self.root
        if type(units) is not np.ndarray:
            root.even += self.m * units / len(root.at)
        elif len(units) == len(root.at):
            root.at += self.m * units
            root.peak = float(root.at.max())
        else:
            root.even += self.m * float(units.sum()) / len(root.at)
        if root.bound is not None and root.peak + root.even > root.bound:
            raise _Over

    @property
    def servers(self) -> np.ndarray:
        """Per root server, the units posted."""
        return self.root.at + self.root.even

    def side(self, rows: float, moved: float | np.ndarray) -> None:
        """Rows of a pass that move: a share of ``rows`` sent to random
        servers, or the rows each server receives (an array)."""
        if isinstance(moved, np.ndarray):
            self.add(moved)
        else:
            self.add(rows * moved * (self.p - 1) / self.p)

    def sort(self, *sides: tuple[float, float | np.ndarray]) -> None:
        """One PSRS pass over sides of ``(rows, what moves)`` (see
        :meth:`side`): samples, splitter broadcast, and the moving rows."""
        p = self.p
        n = int(round(sum(rows for rows, _ in sides)))
        if p == 1 or n == 0:
            return
        q, r = divmod(n, p)
        samples = r * sample_count(q + 1, p) + (p - r) * sample_count(q, p)
        splitters = len(pick_splitters(range(samples), p))
        self.add((samples * (p - 1) / p) + splitters * (p - 1))
        for rows, moved in sides:
            self.side(rows, moved)

    def sorted(self, arr) -> None:
        """One PSRS pass the kernel arranged: its sample gather and
        splitter broadcast, spread evenly, and the rows each server
        receives."""
        if arr.charges is None:
            return
        samples, received = arr.charges
        self.add(sum(samples) * (self.p - 1) / self.p + len(arr.spl) * (self.p - 1))
        self.add(np.array(received, float))

    def trip(self, k: int = 1) -> None:
        """``k`` coordinator round trips (boundary stitch, carry, packing,
        global sum): one unit from and to every other server."""
        self.add(k * 2 * (self.p - 1))

    def bcast(self, items: float) -> None:
        self.add(items * (self.p - 1))

    def move(self, items: float | np.ndarray) -> None:
        """Items sent to random servers, or received per server (an array)."""
        self.side(1.0, items) if isinstance(items, np.ndarray) else self.side(items, 1.0)


def _stretches(weight: np.ndarray, p: int) -> np.ndarray:
    """Where ranges balanced by ``weight`` (per code, in key order) put
    each code, in server units: code ``i`` fills ``[out[i], out[i+1])``
    and server ``s`` holds ``[s, s + 1)``."""
    cum = np.concatenate(([0.0], np.cumsum(weight)))
    return cum * (p / cum[-1]) if cum[-1] else cum


def _psrs(held: Sequence[np.ndarray]):
    """The :class:`~repro.mpc.substrate.Arrangement` one PSRS pass makes of
    sides ``held`` (rows per server and key, keys in key order; side ``t``
    of key ``j`` ranked ``2 j + t``), by the kernel itself
    (:func:`~repro.mpc.substrate._arrange`) on the counts rounded."""
    counts = np.rint(np.stack(held, axis=1)).astype(np.int64)
    ranks = 2 * np.arange(counts.shape[2])[None, :] + np.arange(counts.shape[1])[:, None]
    at = np.nonzero(counts)
    return _arrange(counts.sum(axis=(1, 2)).tolist(), np.repeat(ranks[at[1:]], counts[at]))


def _place_light(first: np.ndarray, weight: np.ndarray, p: int) -> np.ndarray:
    """Where :func:`~repro.core.binary_join.binary_join` puts its light
    keys (in key order, with their ``weight``): each server packs the keys
    whose rows start on it (``first``), in key order, and the coordinator
    places the groups (:func:`~repro.mpc.packing.place_items`).  Returns
    each key's server."""
    cuts = np.searchsorted(first, np.arange(p + 1)).tolist()
    w = np.maximum(weight, 1e-9).tolist()
    gids, servers = place_items([w[lo:hi] for lo, hi in zip(cuts, cuts[1:])])
    return np.array(servers, np.int64)[np.fromiter(chain.from_iterable(gids), np.int64, len(w))]


def _overlaps(stretch: np.ndarray, p: int) -> np.ndarray:
    """Per server and code (in key order), the share of the code's
    stretch on the server (``p x codes``; a code of no width counts where
    it starts)."""
    lo, hi = stretch[:-1], stretch[1:]
    n = len(lo)
    first = np.minimum(lo.astype(np.int64), p - 1)
    last = np.clip(np.ceil(hi).astype(np.int64) - 1, first, p - 1)
    out = np.zeros((p, n))
    one = first == last
    out[first[one], np.flatnonzero(one)] = 1.0
    span = np.flatnonzero(~one)
    if len(span):
        k = last[span] - first[span] + 1
        code = np.repeat(span, k)
        srv = first[code] + np.arange(len(code)) - np.repeat(np.cumsum(k) - k, k)
        part = np.minimum(hi[code], srv + 1) - np.maximum(lo[code], srv)
        out[srv, code] = part / (hi[code] - lo[code])
    return out


@dataclass(frozen=True, eq=False)
class _Placed:
    """Where a relation's rows sit, by code of ``key``: on ranges balanced
    by the per-code ``weight``, or (``keys`` given, as a binary join's
    cells leave its result) code ``keys[j]``'s rows spread over the
    servers by ``share[:, j]``."""

    key: tuple[str, ...]
    weight: np.ndarray
    keys: np.ndarray | None = None
    share: np.ndarray | None = None
    _memo: dict = field(default_factory=dict, repr=False)


@dataclass(eq=False)
class _Rel:
    """A distributed relation as the pricer sees it: the join of ``nodes``
    (views, connected in the current join tree), where its rows sit
    (``None``: dealt evenly, on no key), and the keys its sorted run is
    paid for on."""

    nodes: dict[str, _View]
    arranged: _Placed | None = None
    paid: set = field(default_factory=set)

    def view(self) -> _View:
        (v,) = self.nodes.values()
        return v


class _Pricer:
    """One candidate's walk over counts; ``units`` accumulates its total."""

    def __init__(self, stats: Statistics, p: int, bound: float | None = None) -> None:
        self.s = stats
        self.root = _Units(p, bound=bound)
        #: Each binary join's predicted cell shuffle, in walk order.
        self.shuffles: list[float] = []

    @property
    def units(self) -> float:
        """The predicted ``LoadReport.total``."""
        return float(self.root.servers.sum())

    @property
    def load(self) -> float:
        """The predicted ``LoadReport.load``: the largest server's units."""
        return float(self.root.servers.max())

    # -- helpers --------------------------------------------------------
    def size(self, tree: _Tree, rel: _Rel) -> float:
        if len(rel.nodes) == 1:
            return self.s.size(rel.view())
        return self.s.join_size(tree, rel.nodes)

    def toward(self, tree: _Tree, rel: _Rel, other: _Rel) -> tuple[tuple[str, ...], np.ndarray]:
        """The separator between ``rel`` and ``other`` and ``rel``'s results
        summed per separator code."""
        for u in rel.nodes:
            for v, key in tree.adj[u].items():
                if v in other.nodes:
                    if len(rel.nodes) == 1:
                        return key, self.s.degrees(rel.nodes[u], key)
                    w = self.s.weights(tree, rel.nodes, u, skip=v)
                    return key, self.s.degrees(rel.nodes[u], key, w)
        raise ValueError("relations are not adjacent in the join tree")

    def share(self, U: _Units, arranged: _Placed | None, key: tuple[str, ...],
              rows: np.ndarray, new: np.ndarray) -> float | np.ndarray:
        """What a pass on ``key`` onto ranges balanced by ``new`` moves of
        rows ``rows`` per key code (see :meth:`_Units.side`): the rows each
        server receives when they sit arranged on ``key``, else all of
        them, to random servers."""
        if arranged is None or arranged.key != key or U.p != len(U.root.at):
            return 1.0
        return self.s.moved(arranged, rows, new, U.p)

    def held(self, U: _Units, tree: _Tree, rel: _Rel, other: _Rel,
             key: tuple[str, ...], deg: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """``rel``'s rows per server and code ``keys[j]`` of ``key`` (its
        separator toward ``other``, ``deg`` rows per code): dealt evenly
        when it sits on no key; else each row where its code of the key it
        sits on puts it, counted through the join tree one server at a
        time."""
        p = U.p
        placed = rel.arranged
        if placed is None:
            return np.outer(np.full(p, 1.0 / p), deg[keys])
        spread = self.s.spread(placed, p)
        if placed.key == key:
            col, share = spread
            return share[:, col[keys]] * deg[keys]
        rels = self.s.instance.relations
        u = next((u for u, v in rel.nodes.items()
                  if set(placed.key) <= set(rels[v.base].attrs)), None)
        if u is None:
            return np.outer(np.full(p, 1.0 / p), deg[keys])
        if len(rel.nodes) == 1:
            return self.s.split(rel.nodes[u], spread, placed.key, key, keys)
        view = rel.nodes[u]
        col, share = spread
        on = (share[:, col[self.s.codes(view, placed.key)]] * self.s.ones(view)).T
        split = _Rel({**rel.nodes, u: _View(view.base, view.idx, on)})
        return self.toward(tree, split, other)[1][keys].T

    def run(self, U: _Units, rel: _Rel, key: tuple[str, ...], deg: np.ndarray) -> None:
        """A relation-aware primitive's sorted run: paid once."""
        if key not in rel.paid:
            rel.paid.add(key)
            U.sort((deg.sum(), self.share(U, rel.arranged, key, deg, deg)))

    # -- primitives -----------------------------------------------------
    def semi_join(self, U: _Units, key: tuple[str, ...], rel: _Rel, flt: _Rel) -> _Rel:
        """:func:`repro.mpc.primitives.semi_join` of single views on ``key``."""
        s = self.s
        v, f = rel.view(), flt.view()
        if not key:  # no message: an empty filter empties ``rel``
            empty = np.zeros(s.rows(v), bool)
            return rel if s.rows(f) else _Rel({next(iter(rel.nodes)): s.filtered(v, empty)})
        dv, df = s.degrees(v, key), s.degrees(f, key)
        both = dv + df
        U.sort(
            (dv.sum(), self.share(U, rel.arranged, key, dv, both)),
            (df.sum(), self.share(U, flt.arranged, key, df, both)),
        )
        U.trip()
        keep = (df > 0)[s.codes(v, key)]
        return _Rel({next(iter(rel.nodes)): s.filtered(v, keep)}, _Placed(key, both))

    def dangling(self, U: _Units, tree: _Tree, rels: dict[str, _Rel]) -> dict[str, _Rel]:
        out = dict(rels)
        for target, source, _sweep in tree.jt.sweeps():
            out[target] = self.semi_join(U, tree.adj[target][source], out[target], out[source])
        return out

    def reduce(self, rels: dict[str, _Rel]) -> Hypergraph:
        """:func:`repro.mpc.dangling.reduce_instance`: the dropped
        relations leave the query, and nothing moves."""
        reduced = reduced_query(self.s.query, self.s.instance.relations)
        for name in set(rels).difference(reduced.edge_names):
            del rels[name]
        return reduced

    def binary_join(self, U: _Units, tree: _Tree, r1: _Rel, r2: _Rel) -> _Rel:
        """:func:`repro.core.binary_join.binary_join` over counts."""
        p = U.p
        key, d1 = self.toward(tree, r1, r2)
        _key, d2 = self.toward(tree, r2, r1)
        n1, n2 = d1.sum(), d2.sum()
        if not key:
            self.cartesian(U, [n1, n2])
            return _Rel({**r1.nodes, **r2.nodes})
        # One pass over r1 ⊎ r2: the PSRS kernel itself, run on the rows
        # each server holds per key and side (the keys either side holds,
        # in key order).
        order = self.s.key_order(key)
        keys = order[(d1 + d2)[order] > 0]
        arr = _psrs([
            self.held(U, tree, r1, r2, key, d1, keys), self.held(U, tree, r2, r1, key, d2, keys)
        ])
        U.sorted(arr)
        U.trip(2)  # degree stitch, OUT sum
        # Rows per server and key where the sort leaves them.
        m = len(keys)
        dest = np.repeat(np.arange(p), np.diff(arr.cuts))
        lands = np.bincount(dest * m + (arr.ranks >> 1), minlength=p * m).reshape(p, m)
        rows = lands.sum(axis=0)
        e1, e2 = d1[keys], d2[keys]
        prod = e1 * e2
        out = prod.sum()
        nodes = {**r1.nodes, **r2.nodes}
        if out == 0:
            return _Rel(nodes, _Placed(key, d1 + d2, keys, lands / np.maximum(rows, 1.0)))
        l_in, l_out = budgets(n1 + n2, out, p)
        weight = key_weight(e1, e2, l_in, l_out)
        heavy = (prod > 0) & (weight > 1.0)
        lit = np.flatnonzero((prod > 0) & ~heavy)
        # Light rows move unless their group stays on the server the one
        # sort put them on (parallel_packing's placement).
        server = _place_light(np.argmax(lands[:, lit] > 0, axis=0), weight[lit], p)
        routed = np.bincount(server, rows[lit] - lands[server, lit], minlength=p).astype(float)
        # A heavy key's rectangle takes the next a x b virtual servers, in
        # key order; each cell receives an a-th of its r1 rows and a b-th
        # of its r2 rows, from servers at random.  The result sits where its
        # cells are: a light key's on its group's server, a heavy key's over
        # its rectangle.
        share = np.zeros((p, m))
        share[server, lit] = 1.0
        layout = heavy_layout(
            ((j, float(e1[j]), float(e2[j])) for j in np.flatnonzero(heavy).tolist()), l_in, l_out
        )
        for j, (start, a, b) in layout.items():
            cells = np.bincount((start + np.arange(a * b)) % p, minlength=p)
            routed += cells * ((e1[j] / a + e2[j] / b) * (p - 1) / p)
            share[:, j] = cells / (a * b)
        n_heavy = int(heavy.sum())
        U.trip()  # packing
        U.move(n_heavy)
        U.bcast(n_heavy)
        U.trip(2)  # light carry, heavy numbering stitch
        U.move(routed)
        self.shuffles.append(float(routed.sum()))
        return _Rel(nodes, _Placed(key, d1 * d2, keys, share))

    @staticmethod
    def cartesian(U: _Units, sizes: Sequence[float]) -> None:
        """:func:`repro.core.hypercube.hypercube_cartesian` over counts.
        With at most one side spread, the others reach every server but
        the one holding each row: exactly ``(p-1)`` units per row."""
        sizes = [int(round(n)) for n in sizes]
        if not all(sizes):
            return
        shares, stay = cartesian_route(sizes, U.p)
        if stay is not None:
            U.bcast(sum(sizes) - sizes[stay])
            return
        for n, share in zip(sizes, shares):
            if share > 1:
                # Multi-numbering: a pass on one constant key, which leaves
                # evenly spread rows in place, and a stitch.
                U.sort((n, 0.0))
                U.trip()
        cells = math.prod(shares)
        U.move(sum(n * cells // share for n, share in zip(sizes, shares)))

    def count(self, U: _Units, query: Hypergraph, rels: dict[str, _Rel],
              root: str | None = None):
        """:func:`repro.core.aggregates._fold` over counts: each child's
        sum per separator (on its sorted run while it is untouched, else a
        fresh sort) searched into its parent, and a separator-free child's
        one broadcast scalar, empty or not.  Returns the tree, its root
        and how the root's rows end up arranged; ``root=None`` adds
        :func:`~repro.core.aggregates.mpc_count`'s sum."""
        s = self.s
        tree = s.tree_of(query, root)
        folded: dict[str, tuple] = {}
        for node in tree.jt.bottom_up():
            par = tree.jt.parent[node]
            if par is None:
                continue
            key = tree.adj[node][par]
            if not key:
                U.bcast(1)
                continue
            deg = s.degrees(rels[node].view(), key)
            if node in folded:
                U.sort((deg.sum(), self.share(U, folded[node], key, deg, deg)))
            else:
                self.run(U, rels[node], key, deg)
            U.trip()
            table = (deg > 0).astype(float)
            par_deg = s.degrees(rels[par].view(), key)
            arranged = folded[par] if par in folded else rels[par].arranged
            union = par_deg + table
            U.sort(
                (par_deg.sum(), self.share(U, arranged, key, par_deg, union)),
                (table.sum(), self.share(U, _Placed(key, deg), key, table, union)),
            )
            U.trip()
            folded[par] = _Placed(key, union)
        top = tree.jt.root
        if root is None:
            U.trip()
        return tree, top, folded[top] if top in folded else rels[top].arranged

    # -- candidates -----------------------------------------------------
    def yannakakis(self, order: Sequence[str]) -> None:
        """:func:`repro.core.yannakakis.yannakakis_mpc` along ``order`` (the
        reduced query's relations): the full reducer, each component's
        fold, then one product of the component results."""
        tree, rels = self.s.fold_tree(), self.start()
        component = {
            n: i for i, comp in enumerate(tree.jt.query.connected_components()) for n in comp
        }
        folds: dict[int, _Rel] = {}
        for name in order:
            acc = folds.get(component[name])
            folds[component[name]] = rels[name] if acc is None else (
                self.binary_join(self.root, tree, acc, rels[name])
            )
        if len(folds) > 1:
            self.cartesian(self.root, [self.size(tree, f) for f in folds.values()])

    def start(self) -> dict[str, _Rel]:
        """Every algorithm's opening full reducer, priced from the sweep
        :meth:`Statistics.reduced` recorded: its survivors as fresh
        relations, each on the key its last semi-join left it on."""
        s, p = self.s, self.root.p
        reduced = s.reduced()
        if p not in s.opening:
            arranged: dict[str, _Placed | None] = dict.fromkeys(reduced)
            U = _Units(p)
            for target, source, key, d_target, d_source in s.sweep:
                if not key:  # across components: no message
                    continue
                union = d_target + d_source
                U.sort(
                    (d_target.sum(), self.share(U, arranged[target], key, d_target, union)),
                    (d_source.sum(), self.share(U, arranged[source], key, d_source, union)),
                )
                U.trip()
                arranged[target] = _Placed(key, union)
            s.opening[p] = U.servers, arranged
        units, arranged = s.opening[p]
        self.root.add(units)
        return {n: _Rel({n: view}, arranged[n]) for n, view in reduced.items()}

    def line3(self) -> None:
        s, U = self.s, self.root
        query = s.query
        n1, n2, n3 = is_line3(query)
        tree = s.tree
        rels = self.start()
        self.count(U, query, rels)
        out = s.join_size(tree, s.reduced(), s.messages)
        if out == 0:
            return
        tau = line3_tau(out, sum(s.size(r.view()) for r in rels.values()))
        b_key = tree.adj[n1][n2]
        r1, r2, r3 = rels[n1], rels[n2], rels[n3]
        deg = s.degrees(r1.view(), b_key)
        self.run(U, r1, b_key, deg)
        U.trip()
        halves = {}
        for rel, name in ((r1, n1), (r2, n2)):
            # r1's degree table, on r1's run, routed to each run's ranges.
            view = rel.view()
            own = s.degrees(view, b_key)
            self.run(U, rel, b_key, own)
            table = (deg > 0).astype(float)
            U.side(table.sum(), self.share(U, _Placed(b_key, deg), b_key, table, own))
            U.trip()
            heavy = deg[s.codes(view, b_key)] > tau
            halves[name] = (
                _Rel({name: s.filtered(view, heavy)}, _Placed(b_key, own)),
                _Rel({name: s.filtered(view, ~heavy)}, _Placed(b_key, own)),
            )
        (h1, l1), (h2, l2) = halves[n1], halves[n2]
        if s.size(h1.view()) and s.size(h2.view()):
            r23 = self.binary_join(U, tree, h2, r3)
            self.binary_join(U, tree, h1, r23)
        if s.size(l1.view()) and s.size(l2.view()):
            r12 = self.binary_join(U, tree, l1, l2)
            self.binary_join(U, tree, r12, r3)

    def acyclic(self) -> None:
        s, U = self.s, self.root
        rels = self.start()
        wq = self.reduce(rels)
        tree = s.fold_tree()
        self.count(U, wq, rels)
        out = s.join_size(tree, {n: r.view() for n, r in rels.items()})
        if out:
            self._acyclic(U, wq, tree, rels, out)

    def _acyclic(self, U: _Units, query: Hypergraph, tree: _Tree,
                 rels: dict[str, _Rel], out: float) -> None:
        """:func:`repro.core.acyclic._solve` over counts."""
        s = self.s
        names = list(query.edge_names)
        if len(names) == 1:
            return
        if len(names) == 2:
            self.binary_join(U, tree, rels[names[0]], rels[names[1]])
            return
        e0, children, e_bar, tau = split_point(
            tree.jt, {n: s.size(rels[n].view()) for n in names}, out
        )

        heavy: dict[str, _Rel] = {}
        light: dict[str, _Rel] = {}
        light_deg: dict[str, np.ndarray] = {}
        for ei in children:
            key = tree.adj[ei][e0]
            view = rels[ei].view()
            deg = s.degrees(view, key)
            self.run(U, rels[ei], key, deg)
            U.trip()
            is_heavy = deg[s.codes(view, key)] >= tau
            heavy[ei] = _Rel({ei: s.filtered(view, is_heavy)}, _Placed(key, deg))
            light[ei] = _Rel({ei: s.filtered(view, ~is_heavy)}, _Placed(key, deg))
            light_deg[ei] = s.degrees(light[ei].view(), key)
            self.run(U, light[ei], key, light_deg[ei])
            U.trip()

        fold_order = _fold_order(tree.jt, e0, e_bar)
        for pattern in product(("H", "L"), repeat=len(children)):
            if "H" not in pattern:
                continue
            chosen = {
                ei: heavy[ei] if tag == "H" else light[ei]
                for ei, tag in zip(children, pattern)
            }
            if any(s.size(chosen[ei].view()) == 0 for ei in children):
                continue
            istar = children[pattern.index("H")]
            acc = self.semi_join(U, tree.adj[e0][istar], rels[e0], chosen[istar])
            for ei in children:
                if ei != istar:
                    acc = self.binary_join(U, tree, acc, chosen[ei])
            for nb in fold_order:
                acc = self.binary_join(U, tree, acc, rels[nb])
            self.binary_join(U, tree, acc, chosen[istar])

        # The all-light pattern: split e0 by its children's light degrees.
        r0 = rels[e0].view()
        prod = np.ones(s.rows(r0))
        arranged = rels[e0].arranged
        for i, ei in enumerate(children):
            key = tree.adj[e0][ei]
            own = s.degrees(r0, key)
            table = (light_deg[ei] > 0).astype(float)
            at_light = _Placed(key, light_deg[ei])
            if i == 0:
                self.run(U, rels[e0], key, own)
                U.side(table.sum(), self.share(U, at_light, key, table, own))
            else:
                union = own + table
                U.sort(
                    (own.sum(), self.share(U, arranged, key, own, union)),
                    (table.sum(), self.share(U, at_light, key, table, union)),
                )
            U.trip()
            arranged = _Placed(key, own)
            prod = prod * light_deg[ei][s.codes(r0, key)]
        is_h0 = prod >= tau
        if is_h0.any():
            self._tall_flat(U, tree, rels, e0, s.filtered(r0, is_h0), light, fold_order)
        rl0 = s.filtered(r0, ~is_h0)
        if not s.size(rl0):
            return
        acc = _Rel({e0: rl0}, arranged)
        for ei in children:
            acc = self.binary_join(U, tree, acc, light[ei])
        folded = self._collapse(tree, acc, e0)
        if not e_bar or not s.size(folded):
            return
        # The residual: e0 replaced by its light fold, a weighted view.
        res_edges = {n: query.attrs_of(n) for n in e_bar}
        res_edges[e0] = frozenset().union(*(query.attrs_of(n) for n in acc.nodes))
        res_query = Hypergraph(res_edges, name=f"{query.name}-res")
        res_tree = _Tree(join_tree(res_query))
        res_rels = {n: rels[n] for n in e_bar}
        res_rels[e0] = _Rel({e0: folded})
        res_rels = self.dangling(U, res_tree, res_rels)
        self._acyclic(U, res_query, res_tree, res_rels, out)

    def _collapse(self, tree: _Tree, rel: _Rel, u: str) -> _View:
        """A join whose other nodes only extend ``u``'s rows, as one
        weighted view of ``u`` (rows that extend to nothing dropped)."""
        s = self.s
        w = s.weights(tree, rel.nodes, u)
        return s.filtered(rel.nodes[u], w > 0, w)

    def _tall_flat(self, U: _Units, tree: _Tree, rels: dict[str, _Rel], e0: str,
                   h0: _View, light: dict[str, _Rel], fold_order: list[str]) -> None:
        """Section 5.1's heavy-e0 branch: the folds that build the
        tall-flat instance, then one reduce-and-route of its rows (the
        r-hierarchical solve on it is priced by its linear part only)."""
        acc = _Rel({e0: h0})
        for nb in fold_order:
            acc = self.binary_join(U, tree, acc, rels[nb])
        sizes = [self.size(tree, acc)]
        for ei, rel in light.items():
            wing = self.binary_join(U, tree, _Rel({e0: h0}), rel)
            sizes.append(self.size(tree, wing))
        if all(sizes):
            for n in sizes:
                U.sort((n, 1.0))
                U.trip()
            U.move(sum(sizes))

    def rhierarchical(self) -> None:
        s, U = self.s, self.root
        rels = self.start()
        wq = self.reduce(rels)
        in_size = sum(s.size(r.view()) for r in rels.values())
        sizes: dict[frozenset[str], float] = {}
        names = list(wq.edge_names)
        for k in range(1, len(names) + 1):
            for combo in combinations(names, k):
                sub = Hypergraph({n: wq.attrs_of(n) for n in combo}, name="S")
                tree, _root, _arr = self.count(U, sub, {n: rels[n] for n in combo})
                sizes[frozenset(combo)] = s.join_size(tree, {n: rels[n].view() for n in combo})
        self._rhier(U, wq, rels, load_budget(in_size, sizes, U.p))

    def _rhier(self, U: _Units, query: Hypergraph, rels: dict[str, _Rel], budget: float) -> None:
        """:func:`repro.core.rhierarchical._solve` over counts."""
        if len(query.edge_names) == 1 or U.p == 1:
            return
        forest = attribute_forest(query)
        if len(forest.roots) == 1:
            self._rhier_tree(U, query, rels, forest.roots[0], budget)
        else:
            self._rhier_forest(U, query, rels, forest, budget)

    def _rhier_tree(self, U: _Units, query: Hypergraph, rels: dict[str, _Rel],
                    x: str, budget: float) -> None:
        s = self.s
        names = list(query.edge_names)
        key = (x,)
        views = {n: rels[n].view() for n in names}
        degs = {n: s.degrees(views[n], key) for n in names}
        in_a = sum(degs.values())
        U.sort(*((degs[n].sum(), self.share(U, rels[n].arranged, key, degs[n], in_a))
                 for n in names))
        U.trip()
        present = in_a > 0
        heavy_codes = np.flatnonzero(present & (in_a > budget))
        n_light = int(np.count_nonzero(present)) - len(heavy_codes)
        U.trip()  # packing
        U.move(len(heavy_codes))
        U.bcast(len(heavy_codes))
        demand = {int(a): 1.0 for a in heavy_codes}
        if len(heavy_codes):
            for k in range(1, len(names) + 1):
                for combo in combinations(names, k):
                    sub = Hypergraph({n: query.attrs_of(n) for n in combo}, name="S")
                    tree, root, arranged = self.count(
                        U, sub, {n: rels[n] for n in combo}, root=combo[0]
                    )
                    sub_views = {n: views[n] for n in combo}
                    w = s.weights(tree, sub_views, root)
                    root_deg = degs[root]
                    U.sort((root_deg.sum(), self.share(U, arranged, key, root_deg, root_deg)))
                    U.trip()
                    per_value = s.degrees(views[root], key, w)
                    U.move(np.count_nonzero(per_value[heavy_codes]))
                    for a in demand:
                        demand[a] = max(demand[a], per_value[a] / budget ** k)
        U.bcast(len(heavy_codes))  # allocation
        table = present.astype(float)
        table[heavy_codes] = 0.0
        for n in names:
            # Each relation's rows meet the light values' table, which sits
            # on the ranges that balanced every relation's rows together.
            union = degs[n] + table
            U.sort(
                (degs[n].sum(), self.share(U, rels[n].arranged, key, degs[n], union)),
                (n_light, self.share(U, _Placed(key, in_a), key, table, union)),
            )
            U.trip()
        U.move(sum(d.sum() for d in degs.values()))
        if not demand:
            return
        residual = Hypergraph({n: query.attrs_of(n) - {x} for n in names}, name="res")
        for a, d in demand.items():
            p_a = servers(d, U.p)
            if p_a == 1:
                continue
            sub_rels = {
                n: _Rel({n: s.filtered(views[n], s.codes(views[n], key) == a)})
                for n in names
            }
            self._rhier(U.sub(p_a), residual, sub_rels, budget)

    def _rhier_forest(self, U: _Units, query: Hypergraph, rels: dict[str, _Rel],
                      forest, budget: float) -> None:
        s = self.s
        tree_edges = [sorted(forest.tree_edges(r)) for r in forest.roots]
        demands: list[float] = []
        for edges in tree_edges:
            demand = 1.0
            if sum(s.size(rels[n].view()) for n in edges) > budget:
                for kk in range(1, len(edges) + 1):
                    for combo in combinations(edges, kk):
                        sub = Hypergraph({n: query.attrs_of(n) for n in combo}, name="S")
                        tree, _root, _arr = self.count(U, sub, {n: rels[n] for n in combo})
                        cnt = s.join_size(tree, {n: rels[n].view() for n in combo})
                        demand = max(demand, cnt / budget ** kk)
            demands.append(demand)
        dims = grid_dims(demands, U.p)
        total = math.prod(dims)
        for i, edges in enumerate(tree_edges):
            copies = total // dims[i]
            U.move(copies * sum(s.size(rels[n].view()) for n in edges))
        for i, edges in enumerate(tree_edges):
            sub = Hypergraph({n: query.attrs_of(n) for n in edges}, name="t")
            sub_rels = {n: _Rel(dict(rels[n].nodes)) for n in edges}
            self._rhier(U.sub(dims[i], total // dims[i]), sub, sub_rels, budget)


def candidates(query: Hypergraph) -> tuple[str, ...]:
    """The algorithms ``auto`` prices for an acyclic query: Yannakakis and
    the Section 5.1 algorithm always, the line-3 and r-hierarchical ones
    where the shape admits them."""
    names = ["yannakakis", "acyclic"]
    if is_line3(query):
        names.append("line3")
    if is_r_hierarchical(query):
        names.append("rhierarchical")
    return tuple(names)


def choose(query: Hypergraph, instance: Instance, p: int) -> Choice:
    """The applicable candidate with the least predicted load on ``p``
    servers, Yannakakis at its own least-load fold order
    (:func:`price_fold_orders`' rule): a pure function of (query, data, p).

    Raises:
        CyclicQueryError: If the query is cyclic (cyclic queries are not
            priced; see :func:`repro.core.runner.auto_algorithm`).
    """
    stats = Statistics(query, instance)
    plan, quality, load = _price_orders(query, stats, p)
    if load is None:
        pricer = _Pricer(stats, p)
        pricer.yannakakis(plan.order)
        load = pricer.load
    units: dict[str, int] = {"yannakakis": int(round(load))}
    for name in candidates(query)[1:]:
        # A candidate past the least so far stops there: its units are
        # where it stopped.
        pricer = _Pricer(stats, p, min(units.values()))
        try:
            getattr(pricer, name)()
        except _Over:
            pass
        units[name] = int(round(pricer.load))
    best = min(units, key=units.__getitem__)
    return Choice(best, plan, quality, units)
