"""The HyperCube algorithm: share-based one-round joins.

Two variants:

* :func:`hypercube_cartesian` — Cartesian products (paper Sections 1.3 and
  3.2 Case 2).  Sides with a share above 1 are chunked with multi-numbering
  (deterministic, perfectly balanced) and each grid cell receives one chunk
  combination; share-1 sides are replicated, and a lone spread side stays
  put.  The load matches ``L_Cartesian`` (eq. 1) up to constants — the
  instance-optimality of HyperCube on Cartesian products.
* :func:`hypercube_join` — general joins with per-attribute shares (the
  worst-case-optimal comparators of [24, 19] and the per-class runs inside
  BinHC).  Tuples hash on their attributes' coordinates and replicate over
  the rest; each potential result lands on exactly one server.

:func:`optimal_cartesian_shares` and :func:`optimal_join_shares` compute
integer share vectors (water-filling and a log-space LP, respectively).
Both variants address their cells through one row-major
:class:`~repro.mpc.group.Grid`.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np
from scipy.optimize import linprog

from repro.data.relation import Row, project_row
from repro.errors import MPCError, QueryError
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Grid, Group
from repro.mpc.hashing import stable_hash
from repro.mpc.primitives import multi_numbering
from repro.core.common import (
    align_to_schema,
    canonical_attrs,
    local_hash_join,
    local_tree_join,
)
from repro.data.columns import ColumnBlock
from repro.query.hypergraph import Hypergraph

__all__ = [
    "optimal_cartesian_shares",
    "optimal_join_shares",
    "hypercube_cartesian",
    "hypercube_join",
]


def optimal_cartesian_shares(sizes: Sequence[int], budget: int) -> list[int]:
    """Integer shares minimizing ``max_i N_i / p_i`` with ``prod p_i <= budget``.

    Greedy water-filling: repeatedly grow the dimension with the largest
    per-server residual while the product fits.  Equals the fractional
    optimum within a constant factor, which suffices for the paper's
    instance-optimality statement (HyperCube is optimal up to polylog/const
    factors).
    """
    if budget < 1:
        raise MPCError("budget must be >= 1")
    shares = [1] * len(sizes)
    while True:
        prod = math.prod(shares)
        # Grow the currently worst dimension if the budget allows.
        order = sorted(
            range(len(sizes)), key=lambda i: -(sizes[i] / shares[i])
        )
        grown = False
        for i in order:
            if shares[i] < max(1, sizes[i]) and prod // shares[i] * (shares[i] + 1) <= budget:
                shares[i] += 1
                grown = True
                break
        if not grown:
            return shares


def optimal_join_shares(
    query: Hypergraph, sizes: dict[str, int], budget: int
) -> dict[str, int]:
    """Integer per-attribute shares for HyperCube on a general join.

    Solves the fractional program ``min t`` s.t.
    ``log N_e - sum_{x in e} s_x <= t`` and ``sum_x s_x <= log budget`` in
    log space, then rounds down to integers (re-normalizing so the product
    stays within budget).
    """
    attrs = sorted(query.attributes)
    edges = list(query.edge_names)
    n, m = len(attrs), len(edges)
    # Variables: s_x for each attr, then t.
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = []
    b_ub = []
    for e in edges:
        row = np.zeros(n + 1)
        for x in query.attrs_of(e):
            row[attrs.index(x)] = -1.0
        row[-1] = -1.0
        a_ub.append(row)
        b_ub.append(-math.log(max(2, sizes[e])))
    cap = np.zeros(n + 1)
    cap[:n] = 1.0
    a_ub.append(cap)
    b_ub.append(math.log(max(1, budget)))
    res = linprog(
        c,
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        bounds=[(0, None)] * n + [(None, None)],
        method="highs",
    )
    if not res.success:  # pragma: no cover - feasible by construction
        raise QueryError(f"share LP failed: {res.message}")
    shares = {x: max(1, int(math.floor(math.exp(res.x[i]) + 1e-9))) for i, x in enumerate(attrs)}
    # Renormalize into the budget (floor can still overshoot jointly).
    while math.prod(shares.values()) > budget:
        worst = max(shares, key=lambda x: shares[x])
        if shares[worst] == 1:
            break
        shares[worst] -= 1
    return shares


def cartesian_route(sizes: Sequence[int], p: int) -> tuple[list[int], int | None]:
    """``(shares, stay)`` for a product of sides of ``sizes`` rows: with at
    most one share above 1, ``stay`` is the side that stays put (the
    spread one, else the largest); with more, ``stay`` is ``None`` and the
    spread sides take the grid."""
    shares = optimal_cartesian_shares(sizes, p)
    spread = [i for i, share in enumerate(shares) if share > 1]
    if len(spread) > 1:
        return shares, None
    return shares, spread[0] if spread else max(range(len(sizes)), key=sizes.__getitem__)


def hypercube_cartesian(
    group: Group,
    rels: Sequence[DistRelation],
    label: str = "hypercube",
    name: str = "product",
) -> DistRelation:
    """Cartesian product of ``rels`` with instance-optimal load.

    Output schema: concatenation of the input schemas (must be disjoint).

    :func:`cartesian_route` decides the route from the shares
    :func:`optimal_cartesian_shares` picks.  A
    side whose share is 1 meets every grid cell, so it is replicated to
    every cell unnumbered: each cell receives the rows of that side it
    lacks.  When at most one side has a share above 1, every server is a
    cell: that side stays where it is and each server crosses its own part
    with the other sides, replicated in one exchange (``{label}/bcast``, no
    sort).  This meets eq. (1).  A side ``j`` of ``N_j >= 2`` rows keeps
    share 1 only if the water-filling grew the spread side ``s`` past
    ``floor(p/2)``, while ``j`` still fit, ahead of ``j``: so
    ``N_j <= N_s / floor(p/2) <= 3 N_s / p``, and the load ``sum_j N_j``
    is within a constant of ``L_Cartesian >= N_s / p``.  Only
    when two or more sides have a share above 1 do those sides take the
    grid: each is chunked by multi-numbering and every chunk combination
    meets on one cell (``{label}/shuffle``).
    """
    attrs_all: list[str] = []
    for r in rels:
        for a in r.attrs:
            if a in attrs_all:
                raise MPCError(f"cartesian product schemas overlap on {a!r}")
            attrs_all.append(a)
    p = group.size
    sizes = [r.total_size() for r in rels]
    if any(s == 0 for s in sizes):
        return DistRelation.empty(name, attrs_all, p)
    shares, stay = cartesian_route(sizes, p)
    if stay is None:
        own, inboxes = None, _grid_shuffle(group, rels, shares, label)
    else:
        inboxes = _replicate(group, rels, stay, label)
        # The spread side's own parts, as column blocks.
        own = rels[stay].aligned(rels[stay].attrs).column_parts

    blocks: list[ColumnBlock] = []
    for j, inbox in enumerate(inboxes):
        by_rel: list[list[Row]] = [[] for _ in rels]
        for i, row in inbox:
            by_rel[i].append(row)
        attrs: tuple[str, ...] = ()
        acc = ColumnBlock(1, ())
        for i, (rel, rows) in enumerate(zip(rels, by_rel)):
            side = own[j] if i == stay else ColumnBlock.from_rows(rows, len(rel.attrs))
            attrs, acc = local_hash_join(attrs, acc, rel.attrs, side)
        blocks.append(acc)
    return DistRelation.from_column_parts(name, attrs_all, blocks)


def _replicate(
    group: Group, rels: Sequence[DistRelation], stay: int, label: str
) -> list[list[tuple[int, Row]]]:
    """Every side but ``rels[stay]`` to every server, in one exchange: a
    copy to the server that sends it is free."""
    p = group.size
    outboxes: list[list[tuple[int, Any]]] = [[] for _ in range(p)]
    for i, rel in enumerate(rels):
        if i != stay:
            for src, part in enumerate(rel.parts):
                outboxes[src].extend((dst, (i, row)) for row in part for dst in range(p))
    return group.exchange(outboxes, f"{label}/bcast")


def _grid_shuffle(
    group: Group, rels: Sequence[DistRelation], shares: Sequence[int], label: str
) -> list[list[tuple[int, Row]]]:
    """Every side's rows to the grid cells they meet: a side with a share
    above 1 chunked by multi-numbering, a share-1 side whole (chunk 0)."""
    p = group.size
    grid = Grid(shares)
    chunk_of: list[list[list[tuple[Row, int]]]] = []
    for idx, rel in enumerate(rels):
        if shares[idx] == 1:
            chunk_of.append([[(row, 0) for row in part] for part in rel.parts])
            continue
        numbered = multi_numbering(
            group,
            [[(0, row) for row in part] for part in rel.parts],
            f"{label}/chunk{idx}",
        )
        chunk_of.append(
            [[(row, (num - 1) % shares[idx]) for _k, row, num in part] for part in numbered]
        )

    outboxes: list[list[tuple[int, Any]]] = [[] for _ in range(p)]
    for i in range(len(rels)):
        fixed = [None] * len(rels)
        for src in range(p):
            for row, chunk in chunk_of[i][src]:
                fixed[i] = chunk
                outboxes[src] += [(cell % p, (i, row)) for cell in grid.cells(tuple(fixed))]
    return group.exchange(outboxes, f"{label}/shuffle")


def hypercube_join(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    shares: dict[str, int] | None = None,
    label: str = "hcjoin",
    name: str = "result",
    salt: int = 0,
) -> DistRelation:
    """One-round HyperCube join with per-attribute shares.

    Every tuple is sent to all grid cells consistent with the hash of its
    attribute values; each cell joins its fragments locally.  Each join
    result materializes on exactly one cell (the one addressed by all its
    attribute hashes), so no deduplication is needed.

    Args:
        shares: Share per attribute (defaults to
            :func:`optimal_join_shares` on the relation sizes).  Their
            product must be <= the group size.
    """
    p = group.size
    if shares is None:
        shares = optimal_join_shares(
            query, {n: rels[n].total_size() for n in query.edge_names}, p
        )
    attrs = sorted(query.attributes)
    dims = [max(1, shares.get(a, 1)) for a in attrs]
    if math.prod(dims) > p:
        raise MPCError(f"share product {math.prod(dims)} exceeds group size {p}")
    grid = Grid(dims)
    outboxes: list[list[tuple[int, Any]]] = [[] for _ in range(p)]
    for rel_name in query.edge_names:
        rel = rels[rel_name]
        fixed_idx = [i for i, a in enumerate(attrs) if a in query.attrs_of(rel_name)]
        pos = rel.positions(tuple(attrs[i] for i in fixed_idx))
        for src in range(p):
            for row in rel.parts[src]:
                coords: list[int | None] = [None] * len(attrs)
                for i, v in zip(fixed_idx, project_row(row, pos)):
                    coords[i] = stable_hash(v, salt=salt + i) % dims[i]
                outboxes[src] += [
                    (cell % p, (rel_name, row)) for cell in grid.cells(tuple(coords))
                ]
    inboxes = group.exchange(outboxes, f"{label}/shuffle")

    out_schema = canonical_attrs([rels[n].attrs for n in query.edge_names])
    schemas = {n: rels[n].attrs for n in query.edge_names}
    local_join = local_tree_join if query.is_acyclic() else _local_generic_join
    blocks: list[ColumnBlock] = []
    for inbox in inboxes:
        by_rel: dict[str, list[Row]] = {n: [] for n in query.edge_names}
        for rel_name, row in inbox:
            by_rel[rel_name].append(row)
        _attrs, joined = local_join(query, schemas, by_rel)
        blocks.append(joined)
    return DistRelation.from_column_parts(name, out_schema, blocks)


def _local_generic_join(
    query: Hypergraph,
    schemas: dict[str, tuple[str, ...]],
    rows: dict[str, list[Row]],
) -> tuple[tuple[str, ...], ColumnBlock]:
    """Local join for cyclic queries: fold relations smallest-first."""
    order = sorted(query.edge_names, key=lambda n: len(rows[n]))
    cur_attrs: tuple[str, ...] = ()
    cur = ColumnBlock(1, ())
    for n in order:
        cur_attrs, cur = local_hash_join(
            cur_attrs, cur, schemas[n],
            ColumnBlock.from_rows(rows[n], len(schemas[n])),
        )
    target = canonical_attrs(list(schemas.values()))
    return target, align_to_schema(cur, cur_attrs, target)
