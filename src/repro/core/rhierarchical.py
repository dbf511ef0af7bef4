"""The instance-optimal algorithm for r-hierarchical joins (Section 3.2).

Achieves load O(IN/p + L_instance(p, R)) — optimality ratio O(1), improving
BinHC's polylog ratio (Theorem 3).  Structure:

* Preprocessing: dangling-tuple removal + reduce, leaving a *hierarchical*
  dangling-free instance; then all ``2^m`` subset join sizes ``|Q(R, S)|``
  are computed with linear load (Corollary 4) to evaluate the per-instance
  lower bound (eq. 2) and fix the budget ``L``.
* Case 1 (attribute forest is a single tree, root ``x``): split
  ``dom(x)`` into light values (sub-instance fits one server; grouped by
  parallel-packing) and heavy values (each gets
  ``p_a = max_S |Q_x(R_a, S)| / L^{|S|}`` servers and recurses on the
  residual query).
* Case 2 (forest with k trees = Cartesian product of k sub-joins): a
  ``p_1 x ... x p_k`` hypercube; each grid line along dimension ``i``
  computes sub-join ``i`` (recursively), every grid cell emits the product
  of its k line results.  Redundant computation, zero redundant output —
  the trick that avoids materializing intermediate Cartesian factors.

Grid lines are simulated once per dimension via group *families*
(:class:`~repro.mpc.group.Group` with multiple members): the replicas are
deterministic copies, so their load is tallied without re-execution.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Any

from repro.core.aggregates import mpc_group_by_count, mpc_subset_sizes
from repro.core.common import (
    align_to_schema,
    canonical_attrs,
    local_hash_join,
    local_tree_join,
)
from repro.data.columns import ColumnBlock
from repro.data.relation import Row
from repro.errors import QueryError
from repro.mpc.dangling import reduce_instance, remove_dangling
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Grid, Group
from repro.mpc.hashing import stable_hash
from repro.mpc.packing import parallel_packing
from repro.mpc.primitives import coordinator_for, multi_search, sum_by_key
from repro.query.classify import is_hierarchical
from repro.query.forests import AttributeForest, attribute_forest
from repro.query.hypergraph import Hypergraph

__all__ = ["rhierarchical_join", "instance_lower_bound_from_sizes"]


def instance_lower_bound_from_sizes(
    subset_sizes: dict[frozenset[str], int], p: int
) -> float:
    """``L_instance(p, R)`` (eq. 2) from the subset join sizes."""
    best = 0.0
    for s, cnt in subset_sizes.items():
        if cnt > 0:
            best = max(best, (cnt / p) ** (1.0 / len(s)))
    return best


def load_budget(in_size: float, subset_sizes: dict[frozenset[str], float], p: int) -> float:
    """The budget ``L = max(IN/p, L_instance(p, R))`` (at least 1) every
    recursion level of :func:`rhierarchical_join` sizes its groups by."""
    return max(1.0, in_size / p, instance_lower_bound_from_sizes(subset_sizes, p))


def servers(demand: float, g: int) -> int:
    """A demand of ``max_S |Q(R, S)| / L^|S|`` servers, as a share of a
    group of ``g``: a heavy value's servers, or a Case 2 grid dimension
    before the clamp."""
    return max(1, min(g, math.ceil(demand)))


def grid_dims(demands: list[float], g: int) -> list[int]:
    """Case 2's ``p_1 x ... x p_k``: each tree's servers, the largest
    shrunk one at a time until the grid fits the group."""
    dims = [servers(d, g) for d in demands]
    while math.prod(dims) > g:
        i = max(range(len(dims)), key=lambda j: dims[j])
        if dims[i] == 1:
            break
        dims[i] -= 1
    return dims


def rhierarchical_join(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    label: str = "rhier",
) -> DistRelation:
    """Compute an r-hierarchical join with instance-optimal load.

    Dangling removal and reduce run first; the budget is
    :func:`load_budget` over the reduced instance's subset join sizes.

    Args:
        group: The server group (size p).
        query: An r-hierarchical hypergraph.
        rels: Distributed relations (payload columns allowed).

    Returns:
        Join results in canonical schema order over the *reduced* relations'
        columns (reduced-away relations contribute no private columns —
        they have none, being contained in survivors).
    """
    working = remove_dangling(group, query, rels, f"{label}/dangling")
    wq, working = reduce_instance(query, working)
    if not is_hierarchical(wq):
        raise QueryError(f"{query.name} is not r-hierarchical")

    in_size = sum(working[n].total_size() for n in working)
    sizes = mpc_subset_sizes(group, wq, working, f"{label}/stats")
    budget = load_budget(in_size, sizes, group.size)
    return _solve(group, wq, working, budget, label, depth=0)


# ----------------------------------------------------------------------
# Recursion
# ----------------------------------------------------------------------

def _solve(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    budget: float,
    label: str,
    depth: int,
) -> DistRelation:
    schema = canonical_attrs([rels[n].attrs for n in query.edge_names])
    if len(query.edge_names) == 1:
        return rels[query.edge_names[0]].aligned(schema, "result")
    forest = attribute_forest(query)
    if len(forest.roots) == 1:
        return _case_tree(group, query, rels, forest, budget, label, depth, schema)
    return _case_forest(group, query, rels, forest, budget, label, depth, schema)


def _case_tree(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    forest: AttributeForest,
    budget: float,
    label: str,
    depth: int,
    schema: tuple[str, ...],
) -> DistRelation:
    """Case 1: single attribute tree rooted at ``x`` shared by every edge."""
    x = forest.roots[0]
    g = group.size
    names = list(query.edge_names)

    # IN_a for every root value a (one sum-by-key over all relations).
    combined: list[list[tuple[Any, int]]] = [[] for _ in range(g)]
    xpos = {n: rels[n].positions((x,))[0] for n in names}
    for n in names:
        for i, part in enumerate(rels[n].parts):
            combined[i].extend((row[xpos[n]], 1) for row in part)
    ina_parts = sum_by_key(group, combined, label=f"{label}/d{depth}/ina")

    light_parts: list[list[tuple[Any, float]]] = []
    heavy_parts: list[list[tuple[Any, int]]] = []
    for part in ina_parts:
        lp, hp = [], []
        for a, cnt in part:
            if cnt <= budget:
                lp.append((a, max(cnt / budget, 1e-9)))
            else:
                hp.append((a, cnt))
        light_parts.append(lp)
        heavy_parts.append(hp)

    # Its rows are not arranged on ``x``, so a group's packing server
    # means nothing to them: light groups go to ``gid % g``.
    packed, _ = parallel_packing(group, light_parts, f"{label}/d{depth}/pack")
    assignments = [[(a, gid) for a, (gid, _dest) in part] for part in packed]

    # Heavy values: subset join sizes per value via COUNT GROUP BY x.
    coord = coordinator_for(group, f"{label}/d{depth}")
    heavy_list = group.gather(
        heavy_parts, f"{label}/d{depth}/heavy-gather", dst=coord
    )
    heavy_values = {a for a, _cnt in heavy_list}
    group.broadcast(
        sorted(heavy_values, key=repr), f"{label}/d{depth}/heavy-bcast", src=coord
    )

    heavy_counts: dict[Any, float] = {a: 1.0 for a in heavy_values}
    if heavy_values:
        for k in range(1, len(names) + 1):
            for combo in combinations(names, k):
                sub_query = Hypergraph(
                    {n: query.attrs_of(n) for n in combo}, name="S"
                )
                counts = mpc_group_by_count(
                    group, sub_query, {n: rels[n] for n in combo}, (x,),
                    f"{label}/d{depth}/gb",
                )
                entries = group.gather(
                    [
                        [(key[0], cnt) for key, cnt in part if key[0] in heavy_values]
                        for part in counts
                    ],
                    f"{label}/d{depth}/gb-gather",
                    dst=coord,
                )
                # The count for S restricted to value a is |Q_x(R_a, S)|:
                # the per-value residual-subset size of the recursion target.
                for a, cnt in entries:
                    heavy_counts[a] = max(heavy_counts[a], cnt / budget ** k)

    heavy_desc: dict[Any, tuple[int, int]] = {}
    cursor = 0
    for a in sorted(heavy_values, key=repr):
        p_a = servers(heavy_counts[a], g)
        heavy_desc[a] = (cursor, p_a)
        cursor += p_a
    group.broadcast(list(heavy_desc.items()), f"{label}/d{depth}/alloc", src=coord)

    # Route every tuple: light to its pack group's server, heavy to its
    # value's subgroup (even by row hash).
    outboxes: list[list[tuple[int, Any]]] = [[] for _ in range(g)]
    for n in names:
        pos = xpos[n]
        x_parts = [
            [(row[pos], row) for row in part] for part in rels[n].parts
        ]
        found = multi_search(
            group, x_parts, assignments, f"{label}/d{depth}/route-{n}"
        )
        for src, part in enumerate(found):
            for a, row, pk, gid in part:
                # gid is None without a predecessor, whose key (None) a
                # None value would otherwise equal.
                if pk == a and gid is not None:
                    outboxes[src].append((gid % g, (("L", gid), n, row)))
                elif a in heavy_desc:
                    start, p_a = heavy_desc[a]
                    idx = stable_hash(row, salt=depth) % p_a
                    outboxes[src].append(
                        (((start + idx) % g), (("H", a), n, row))
                    )
                # Neither light nor heavy cannot happen: every value of x
                # present in the (dangling-free) instance has IN_a >= 1.
    inboxes = group.exchange(outboxes, f"{label}/d{depth}/shuffle")

    # Every server's result pieces, behind an empty one that fixes the arity.
    pieces: list[list[ColumnBlock]] = [
        [ColumnBlock.from_rows([], len(schema))] for _ in range(g)
    ]

    # Light sub-instances: solve locally on each pack server.
    schemas = {n: rels[n].attrs for n in names}
    for server, inbox in enumerate(inboxes):
        by_gid: dict[Any, dict[str, list[Row]]] = {}
        for tag, n, row in inbox:
            if tag[0] != "L":
                continue
            by_gid.setdefault(tag[1], {m: [] for m in names})[n].append(row)
        for gid, rows in by_gid.items():
            if any(not rows[n] for n in names):
                continue
            _attrs, joined = local_tree_join(query, schemas, rows)
            pieces[server].append(align_to_schema(joined, _attrs, schema))

    # Heavy values: recurse on the residual query with allocated servers.
    if heavy_desc:
        residual_query = Hypergraph(
            {n: query.attrs_of(n) - {x} for n in names},
            name=f"{query.name}-res",
        )
        for a, (start, p_a) in heavy_desc.items():
            indices = [(start + i) % g for i in range(p_a)]
            subgroup = group.subgroup(indices)
            sub_rels = {}
            for n in names:
                parts = [
                    [
                        row
                        for tag, m, row in inboxes[indices[i]]
                        if tag == ("H", a) and m == n
                    ]
                    for i in range(p_a)
                ]
                sub_rels[n] = DistRelation(n, rels[n].attrs, parts, owned=True)
            sub_result = _solve(
                subgroup, residual_query, sub_rels, budget,
                f"{label}/d{depth}/h", depth + 1,
            )
            aligned = sub_result.aligned(schema).column_parts
            for i, block in enumerate(aligned):
                pieces[indices[i]].append(block)

    return DistRelation.from_column_parts(
        "result", schema, [ColumnBlock.concat(blocks) for blocks in pieces]
    )


def _case_forest(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    forest: AttributeForest,
    budget: float,
    label: str,
    depth: int,
    schema: tuple[str, ...],
) -> DistRelation:
    """Case 2: k trees — a Cartesian product over a server hypercube."""
    from repro.core.aggregates import mpc_count

    g = group.size
    roots = forest.roots
    k = len(roots)
    tree_edges = [sorted(forest.tree_edges(r)) for r in roots]

    # Per-tree server demands, clamped into a grid that fits the group.
    demands: list[float] = []
    for edges in tree_edges:
        demand = 1.0
        if sum(rels[n].total_size() for n in edges) > budget:
            for kk in range(1, len(edges) + 1):
                for combo in combinations(edges, kk):
                    sub_query = Hypergraph(
                        {n: query.attrs_of(n) for n in combo}, name="S"
                    )
                    cnt = mpc_count(
                        group, sub_query, {n: rels[n] for n in combo},
                        f"{label}/d{depth}/cnt",
                    )
                    demand = max(demand, cnt / (budget ** kk))
        demands.append(demand)
    dims = grid_dims(demands, g)
    grid = Grid(dims)

    # Route each tree's relations into the grid with replication along the
    # other dimensions (the HyperCube input distribution).
    outboxes: list[list[tuple[int, Any]]] = [[] for _ in range(g)]
    for i, edges in enumerate(tree_edges):
        fixed = [None] * k
        for n in edges:
            for src, part in enumerate(rels[n].parts):
                for row in part:
                    fixed[i] = stable_hash(row, salt=depth * 31 + i) % dims[i]
                    outboxes[src] += [(cell, (i, n, row)) for cell in grid.cells(tuple(fixed))]
    # Deliver on the full group (grid cells are the first prod(dims) locals).
    inboxes = group.exchange(outboxes, f"{label}/d{depth}/grid")

    # Solve each tree once on its line family.
    families = group.grid_line_groups(dims)
    results: list[DistRelation] = []
    for i, edges in enumerate(tree_edges):
        sub_query = Hypergraph(
            {n: query.attrs_of(n) for n in edges}, name=f"{query.name}-t{i}"
        )
        parts_per_line: dict[str, list[list[Row]]] = {n: [] for n in edges}
        for v in range(dims[i]):
            cell = v * grid.strides[i]  # representative line: other coords 0
            for n in edges:
                parts_per_line[n].append(
                    [row for ti, m, row in inboxes[cell] if ti == i and m == n]
                )
        sub_rels = {
            n: DistRelation(n, rels[n].attrs, parts_per_line[n], owned=True)
            for n in edges
        }
        results.append(
            _solve(
                families[i], sub_query, sub_rels, budget,
                f"{label}/d{depth}/t{i}", depth + 1,
            )
        )

    # Each grid cell emits the product of its line results.
    blocks = [ColumnBlock.from_rows([], len(schema))] * g
    for cell, coords in enumerate(product(*map(range, dims))):  # row-major
        attrs: tuple[str, ...] = ()
        acc = ColumnBlock(1, ())
        for result, c in zip(results, coords):
            attrs, acc = local_hash_join(attrs, acc, result.attrs, result.column_parts[c])
        blocks[cell] = align_to_schema(acc, attrs, schema)
    return DistRelation.from_column_parts("result", schema, blocks)
