"""Choosing a join algorithm, and a Yannakakis fold order, by predicted load.

Section 4.1's observation, turned into a feature: in the RAM model the
Yannakakis join order never matters asymptotically, but in MPC a plan that
shuffles a large intermediate result pays its size divided by p.
:func:`price_fold_orders` enumerates the join-tree-consistent fold orders,
*prices* each one by its maximum intermediate join size, and returns the
best plan together with the best/worst spread.  The orders are those of
the *reduced* query: after the full reducer a contained relation is a
projection of its container, and Yannakakis drops it instead of joining
it (:func:`repro.core.yannakakis.yannakakis_mpc`).  Yannakakis folds each
connected component on its own and takes one product of the results, so
an order is one connected order per component.

The paper's output-optimal algorithms (Theorems 3, 5, 7) beat that planned
Yannakakis run only asymptotically, once ``IN >= p^2`` or ``p^3``; below
it their OUT counts, degree splits and sub-joins cost more than they save.
So no query class settles which algorithm moves the least data:
:func:`choose` prices every applicable *candidate* — Yannakakis along its
priced fold order, the Section 5.1 acyclic algorithm, and where the shape
admits them the line-3 (Section 4.2) and r-hierarchical (Section 3.2)
algorithms — and returns the cheapest.

A candidate's price is its predicted ``LoadReport.total``: the units its
control flow would post, walked over exact counts.  The walk calls the
algorithms' own routing rules rather than restating them:
:func:`~repro.core.binary_join.budgets`,
:func:`~repro.core.binary_join.key_weight` and
:func:`~repro.core.binary_join.heavy_rectangle`;
:func:`~repro.core.hypercube.cartesian_route`;
:func:`~repro.core.line3.line3_tau`;
:func:`~repro.core.acyclic.split_point`;
:func:`~repro.core.rhierarchical.load_budget`,
:func:`~repro.core.rhierarchical.servers` and
:func:`~repro.core.rhierarchical.grid_dims`; and
:meth:`~repro.query.hypergraph.JoinTree.sweeps` for the full reducer.
Each PSRS pass is charged its sample gather, splitter broadcast and
shuffle (:func:`repro.mpc.substrate.charge_pass`), each boundary trip
``2(p-1)``, each binary join its one pass over both sides, its boundary
trips and its shuffle with the heavy-key rectangles.  Only *where* rows
land is not modelled: a pass moves ``(p-1)/p`` of the rows that are not
already range-partitioned on its key, and every part holds ``n/p`` rows.
A total is a sum of message sizes, so it follows from counts; the
per-server maximum would need placements, and the least total is not
always the least load (DESIGN.md §5, "Why a total").

Everything runs in RAM on the coordinator's copy of the instance over one
:class:`Statistics` object — integer codes of every attribute, the full
reducer's survivors, per-key degree counts and the prefix messages of a
counting Yannakakis — and communicates nothing: no cluster, no backend
round, no ledger charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, count, islice, product
from typing import Sequence

import numpy as np

from repro.core.acyclic import _fold_order, split_point
from repro.core.binary_join import budgets, heavy_rectangle, key_weight
from repro.core.hypercube import cartesian_route
from repro.core.line3 import is_line3, line3_tau
from repro.core.rhierarchical import grid_dims, load_budget, servers
from repro.core.yannakakis import component_orders
from repro.data.instance import Instance
from repro.mpc.dangling import reduced_query
from repro.mpc.substrate import pick_splitters, sample_count
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
            :func:`repro.core.yannakakis.yannakakis_mpc` runs.
        max_intermediate: The largest intermediate join size along the plan
            (the quantity that drives MPC load).
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
        algorithm: The candidate with the least predicted units (ties go
            to the earlier entry of ``units``).
        plan: The priced Yannakakis fold order (:func:`price_fold_orders`),
            run when ``algorithm == "yannakakis"``.
        quality: The fold orders' best/worst spread.
        units: Every candidate's predicted ``LoadReport.total``.
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
        """Rows (or weight ``w``) of ``view`` per code of ``key``."""
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
                msg = self.message(tree, nodes, v, u, memo)
                w = w * msg[self.codes(nodes[u], key)]
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
    query: Hypergraph, instance: Instance, limit: int = 64
) -> tuple[PlanChoice, dict[str, int]]:
    """The fold order minimizing the largest intermediate join, and the
    best/worst spread over all orders, from one pricing pass.

    Every connected prefix of every enumerated order (over the reduced
    query, see :func:`enumerate_fold_orders`) is sized exactly on the full
    reducer's survivors (see :func:`_prefix_sizer`); the first order
    attaining the minimum wins.  The gap between ``best`` and ``worst`` is
    Section 4.1's join-order sensitivity.  A component of at most two
    relations has no intermediate; when no component of the reduced query
    has more, nothing is reduced or counted.

    Raises:
        CyclicQueryError: If the query is cyclic (a :class:`QueryError`).
    """
    components = query.reduce()[0].connected_components()
    stats = Statistics(query, instance) if max(map(len, components)) > 2 else None
    return _price_orders(query, stats, limit)


def _price_orders(
    query: Hypergraph, stats: Statistics | None, limit: int = 64
) -> tuple[PlanChoice, dict[str, int]]:
    """Each component's best connected order, concatenated.  Components
    are priced apart (no prefix crosses between them), so the best and
    worst spread is the worst component's and the orders multiply."""
    per_component = component_orders(query.reduce()[0], limit)
    size = _prefix_sizer(stats) if any(len(o[0]) > 2 for o in per_component) else None
    order: tuple[str, ...] = ()
    prefixes: tuple[tuple[str, ...], ...] = ()
    sizes: tuple[int, ...] = ()
    quality = {"best": 0, "worst": 0, "orders": 1}
    for orders in per_component:
        best: tuple | None = None
        worsts: list[int] = []
        for cand in orders:
            # The component's whole join is the same under every order.
            heads = tuple(cand[:k] for k in range(2, len(cand)))
            cand_sizes = tuple(size(frozenset(h)) for h in heads)
            worst = max(cand_sizes, default=0)
            worsts.append(worst)
            if best is None or worst < best[0]:
                best = (worst, cand, heads, cand_sizes)
        assert best is not None
        order += best[1]
        prefixes += best[2]
        sizes += best[3]
        quality = {
            "best": max(quality["best"], best[0]),
            "worst": max(quality["worst"], max(worsts)),
            "orders": quality["orders"] * len(worsts),
        }
    plan = PlanChoice(order, max(sizes, default=0), sizes, prefixes)
    return plan, quality


# ----------------------------------------------------------------------
# The ledger model
# ----------------------------------------------------------------------

class _Units:
    """Predicted units posted on a group of ``p`` servers with ``m``
    members (a family's replicas each post the same counts)."""

    def __init__(self, p: int, m: int = 1, total: list[float] | None = None) -> None:
        self.p, self.m = p, m
        self.total = total if total is not None else [0.0]

    def sub(self, p: int, m: int = 1) -> "_Units":
        return _Units(p, self.m * m, self.total)

    def add(self, units: float) -> None:
        self.total[0] += self.m * units

    def sort(self, *sides: tuple[float, float]) -> None:
        """One PSRS pass over sides of ``(rows, share that moves)`` spread
        evenly: samples, splitter broadcast, and the moving rows."""
        p = self.p
        n = int(round(sum(rows for rows, _ in sides)))
        if p == 1 or n == 0:
            return
        q, r = divmod(n, p)
        samples = r * sample_count(q + 1, p) + (p - r) * sample_count(q, p)
        splitters = len(pick_splitters(range(samples), p))
        moved = sum(rows * share for rows, share in sides)
        self.add((samples + moved) * (p - 1) / p + splitters * (p - 1))

    def trip(self, k: int = 1) -> None:
        """``k`` coordinator round trips (boundary stitch, carry, packing,
        global sum): one unit from and to every other server."""
        self.add(k * 2 * (self.p - 1))

    def bcast(self, items: float) -> None:
        self.add(items * (self.p - 1))

    def move(self, items: float) -> None:
        self.add(items * (self.p - 1) / self.p)


def _drift(new: np.ndarray, old: np.ndarray, p: int) -> float:
    """The share of items that leave their server when ranges balanced by
    per-key weights ``old`` are redrawn balanced by ``new`` (or back).

    Keys sit in value order, which counts do not reveal, so it is taken as
    random: the two cumulative shares then part like a random walk over
    the per-key share differences, by about their root sum of squares,
    against ranges ``1/p`` wide.  Equal profiles move nothing; a table of
    one entry per key re-sorted off row-balanced ranges moves by its
    degrees' skew.
    """
    total_new, total_old = float(new.sum()), float(old.sum())
    if not total_new or not total_old:
        return 0.0
    gap = new * (1.0 / total_new) - old * (1.0 / total_old)
    return min(1.0, p * math.sqrt(float(gap @ gap)) / 2)


@dataclass(eq=False)
class _Rel:
    """A distributed relation as the pricer sees it: the join of ``nodes``
    (views, connected in the current join tree), the key its parts are
    range-partitioned on with the per-key weights those ranges balance,
    and the keys its sorted run is paid for on."""

    nodes: dict[str, _View]
    arranged: tuple[tuple[str, ...], np.ndarray] | None = None
    paid: set = field(default_factory=set)

    def view(self) -> _View:
        (v,) = self.nodes.values()
        return v


class _Pricer:
    """One candidate's walk over counts; ``units`` accumulates its total."""

    def __init__(self, stats: Statistics, p: int) -> None:
        self.s = stats
        self.root = _Units(p)

    @property
    def units(self) -> float:
        return self.root.total[0]

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

    @staticmethod
    def share(U: _Units, arranged, key: tuple[str, ...], deg: np.ndarray) -> float:
        """The share of rows with per-key counts ``deg`` a pass on ``key``
        moves, given how their parts are ``arranged``."""
        if arranged is None or arranged[0] != key:
            return 1.0
        return _drift(deg, arranged[1], U.p)

    def run(self, U: _Units, rel: _Rel, key: tuple[str, ...], deg: np.ndarray) -> None:
        """A relation-aware primitive's sorted run: paid once."""
        if key not in rel.paid:
            rel.paid.add(key)
            U.sort((deg.sum(), self.share(U, rel.arranged, key, deg)))

    # -- primitives -----------------------------------------------------
    def semi_join(self, U: _Units, key: tuple[str, ...], rel: _Rel, flt: _Rel) -> _Rel:
        """:func:`repro.mpc.primitives.semi_join` of single views on ``key``."""
        s = self.s
        v, f = rel.view(), flt.view()
        if not key:  # no message: an empty filter empties ``rel``
            empty = np.zeros(s.rows(v), bool)
            return rel if s.rows(f) else _Rel({next(iter(rel.nodes)): s.filtered(v, empty)})
        dv, df = s.degrees(v, key), s.degrees(f, key)
        U.sort(
            (dv.sum(), self.share(U, rel.arranged, key, dv)),
            (df.sum(), self.share(U, flt.arranged, key, df)),
        )
        U.trip()
        keep = (df > 0)[s.codes(v, key)]
        return _Rel({next(iter(rel.nodes)): s.filtered(v, keep)}, (key, dv + df))

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
        # One pass over r1 ⊎ r2, on ranges balanced by both sides' rows.
        both_sides = d1 + d2
        U.sort(
            (n1, self.share(U, r1.arranged, key, both_sides)),
            (n2, self.share(U, r2.arranged, key, both_sides)),
        )
        U.trip(2)  # degree stitch, OUT sum
        prod = d1 * d2
        out = prod.sum()
        joined = _Rel({**r1.nodes, **r2.nodes})
        if out == 0:
            return joined
        l_in, l_out = budgets(n1 + n2, out, p)
        both = prod > 0
        weight = key_weight(d1, d2, l_in, l_out)
        heavy = both & (weight > 1.0)
        light = both & ~heavy
        # Light groups are numbered in key order, about one per server
        # while no key fills half a group: a side already on ranges of
        # this key, balanced like the union, then mostly finds its group
        # on its own server.
        local = not (light & (weight >= 0.5)).any()
        routed = sum(
            float(d[light].sum())
            * (self.share(U, rel.arranged, key, both_sides) if local else 1.0)
            for rel, d in ((r1, d1), (r2, d2))
        )
        for c1, c2 in zip(d1[heavy].tolist(), d2[heavy].tolist()):
            a, b = heavy_rectangle(c1, c2, l_in, l_out)
            routed += c1 * b + c2 * a
        n_heavy = int(heavy.sum())
        U.trip()  # packing
        U.move(n_heavy)
        U.bcast(n_heavy)
        U.trip(2)  # light carry, heavy numbering stitch
        U.move(routed)
        return joined

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
                U.sort((deg.sum(), self.share(U, folded[node], key, deg)))
            else:
                self.run(U, rels[node], key, deg)
            U.trip()
            table = (deg > 0).astype(float)
            par_deg = s.degrees(rels[par].view(), key)
            arranged = folded[par] if par in folded else rels[par].arranged
            U.sort(
                (par_deg.sum(), self.share(U, arranged, key, par_deg)),
                (table.sum(), _drift(table, deg, U.p)),
            )
            U.trip()
            folded[par] = (key, par_deg + table)
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
            arranged: dict[str, tuple | None] = dict.fromkeys(reduced)
            U = _Units(p)
            for target, source, key, d_target, d_source in s.sweep:
                if not key:  # across components: no message
                    continue
                U.sort(
                    (d_target.sum(), self.share(U, arranged[target], key, d_target)),
                    (d_source.sum(), self.share(U, arranged[source], key, d_source)),
                )
                U.trip()
                arranged[target] = (key, d_target + d_source)
            s.opening[p] = U.total[0], arranged
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
            U.move(np.count_nonzero(deg) * _drift(own, deg, U.p))
            U.trip()
            heavy = deg[s.codes(view, b_key)] > tau
            halves[name] = (
                _Rel({name: s.filtered(view, heavy)}, (b_key, own)),
                _Rel({name: s.filtered(view, ~heavy)}, (b_key, own)),
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
            heavy[ei] = _Rel({ei: s.filtered(view, is_heavy)}, (key, deg))
            light[ei] = _Rel({ei: s.filtered(view, ~is_heavy)}, (key, deg))
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
            table = light_deg[ei] > 0
            if i == 0:
                self.run(U, rels[e0], key, own)
                U.move(table.sum() * _drift(own, light_deg[ei], U.p))
            else:
                U.sort(
                    (own.sum(), self.share(U, arranged, key, own)),
                    (table.sum(), _drift(own, light_deg[ei], U.p)),
                )
            U.trip()
            arranged = (key, own)
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
        U.sort(*((degs[n].sum(), self.share(U, rels[n].arranged, key, degs[n])) for n in names))
        U.trip()
        in_a = sum(degs.values())
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
                    U.sort((root_deg.sum(), self.share(U, arranged, key, root_deg)))
                    U.trip()
                    per_value = s.degrees(views[root], key, w)
                    U.move(np.count_nonzero(per_value[heavy_codes]))
                    for a in demand:
                        demand[a] = max(demand[a], per_value[a] / budget ** k)
        U.bcast(len(heavy_codes))  # allocation
        for n in names:
            # Each relation's rows meet the light values' table, which sits
            # on the ranges that balanced every relation's rows together.
            U.sort(
                (degs[n].sum(), self.share(U, rels[n].arranged, key, degs[n])),
                (n_light, _drift(degs[n], in_a, U.p)),
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
    servers: a pure function of (query, data, p).

    Raises:
        CyclicQueryError: If the query is cyclic (cyclic queries are not
            priced; see :func:`repro.core.runner.auto_algorithm`).
    """
    stats = Statistics(query, instance)
    plan, quality = _price_orders(query, stats)
    units: dict[str, int] = {}
    for name in candidates(query):
        pricer = _Pricer(stats, p)
        if name == "yannakakis":
            pricer.yannakakis(plan.order)
        else:
            getattr(pricer, name)()
        units[name] = int(round(pricer.units))
    best = min(units, key=units.__getitem__)
    return Choice(best, plan, quality, units)
