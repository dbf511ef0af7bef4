"""The BinHC algorithm: one-round, degree-aware HyperCube (paper Section 3.1).

BinHC [8] generalizes HyperCube using full degree information.  This module
implements the standard constructive reading: bucket every join-attribute
value by the power-of-two class of its maximum degree across relations,
partition the instance into *uniform sub-instances* (one per class
combination), and run a share-optimized HyperCube for each — all in the
same communication round, so the loads add up across the (polylog-many)
sub-instances.  That reproduces the paper's analysis exactly:

* Theorem 1: on tall-flat joins the total is O~(IN/p + L_instance).
* Theorem 2: on r-hierarchical joins *without dangling tuples* likewise.
* With dangling tuples one round cannot achieve this (Koutris-Suciu [26]);
  the multi-round fix (``remove_dangling_first=True``) runs the O(1)-round
  full reducer first and then BinHC, giving the paper's
  ``(IN/p + L_instance) * polylog`` multi-round bound.
"""

from __future__ import annotations

import math
from itertools import product as iter_product
from typing import Any

from repro.core.common import canonical_attrs, concat_distrels
from repro.core.hypercube import hypercube_join, optimal_join_shares
from repro.data.relation import Row
from repro.mpc.dangling import remove_dangling as run_full_reducer
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.mpc.primitives import (
    coordinator_for,
    count_by_key,
    multi_search,
    sum_by_key,
)
from repro.query.hypergraph import Hypergraph

__all__ = ["binhc_join"]


def binhc_join(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    label: str = "binhc",
    remove_dangling_first: bool = False,
) -> DistRelation:
    """Compute a join with the BinHC strategy.

    Args:
        group: Server group (size p).
        query: Any join hypergraph (the optimality statements hold for
            tall-flat / dangling-free r-hierarchical inputs).
        rels: Distributed relations.
        remove_dangling_first: Prepend the O(1)-round full reducer (the
            multi-round variant for r-hierarchical joins with dangling
            tuples).

    Returns:
        Join results in canonical schema order.
    """
    working = dict(rels)
    if remove_dangling_first:
        working = run_full_reducer(group, query, working, f"{label}/dangling")

    schema = canonical_attrs([working[n].attrs for n in query.edge_names])
    join_attrs = sorted(
        x for x in query.attributes if len(query.edges_with(x)) >= 2
    )
    p = group.size

    if not join_attrs:
        # Pure Cartesian product: plain HyperCube is the whole story.
        from repro.core.hypercube import hypercube_cartesian

        ordered = [working[n] for n in query.edge_names]
        res = hypercube_cartesian(group, ordered, f"{label}/cart")
        return res.aligned(schema, "result")

    # --- Degree classes per join-attribute value. ------------------------
    # md(x=a) = max over edges containing x of |sigma_{x=a} R(e)|;
    # class(a) = floor(log2 md).  Values in the same class behave uniformly
    # up to a factor of 2, which is where the polylog optimality ratio
    # comes from.
    class_tables: dict[str, list[list[tuple[Any, int]]]] = {}
    observed_classes: dict[str, list[int]] = {}
    for x in join_attrs:
        per_edge_parts: list[list[tuple[Any, int]]] = [
            [] for _ in range(group.size)
        ]
        for e in sorted(query.edges_with(x)):
            rel = working[e]
            counted = count_by_key(group, rel, (x,), label=f"{label}/deg-{x}-{e}")
            for i, part in enumerate(counted):
                per_edge_parts[i].extend(part)
        maxed = sum_by_key(
            group, per_edge_parts, plus=max, label=f"{label}/maxdeg-{x}"
        )
        table = [
            [(v, int(math.log2(max(1, d)))) for v, d in part] for part in maxed
        ]
        class_tables[x] = table
        classes = sorted({c for part in table for _v, c in part})
        observed_classes[x] = classes
    # Class menus are tiny (log IN per attribute): share them globally.
    group.broadcast(
        [(x, c) for x in join_attrs for c in observed_classes[x]],
        f"{label}/classes",
    )

    # --- Attach class vectors to every tuple. -----------------------------
    # tagged[e] : per-server (row, {attr: class}) pairs.
    tagged: dict[str, list[list[tuple[Row, dict[str, int]]]]] = {}
    for e in query.edge_names:
        rel = working[e]
        attrs_here = [x for x in join_attrs if x in query.attrs_of(e)]
        current: list[list[tuple[Row, dict[str, int]]]] = [
            [(row, {}) for row in part] for part in rel.parts
        ]
        for x in attrs_here:
            pos = rel.positions((x,))[0]
            x_parts = [
                [((row[pos],), (row, tags)) for row, tags in part]
                for part in current
            ]
            found = multi_search(
                group, x_parts, class_tables[x], f"{label}/tag-{e}-{x}"
            )
            current = [
                [
                    (row, {**tags, x: (c if pk == key else -1)})
                    for key, (row, tags), pk, c in part
                ]
                for part in found
            ]
        tagged[e] = current

    # --- Per-(edge, class-projection) sizes, shared globally. -------------
    size_parts: list[list[tuple[Any, int]]] = [[] for _ in range(group.size)]
    for e in query.edge_names:
        attrs_here = tuple(x for x in join_attrs if x in query.attrs_of(e))
        for i, part in enumerate(tagged[e]):
            for _row, tags in part:
                key = (e, tuple(tags[x] for x in attrs_here))
                size_parts[i].append((key, 1))
    sizes_counted = sum_by_key(group, size_parts, label=f"{label}/sizes")
    coord = coordinator_for(group, label)
    gathered = group.gather(sizes_counted, f"{label}/sizes-gather", dst=coord)
    class_sizes: dict[Any, int] = dict(gathered)
    group.broadcast(list(class_sizes.items()), f"{label}/sizes-bcast", src=coord)

    # --- One HyperCube per surviving class combination. -------------------
    pieces: list[DistRelation] = []
    combo_space = [observed_classes[x] for x in join_attrs]
    for combo_idx, combo in enumerate(iter_product(*combo_space)):
        combo_map = dict(zip(join_attrs, combo))
        sizes_c: dict[str, int] = {}
        skip = False
        for e in query.edge_names:
            attrs_here = tuple(
                x for x in join_attrs if x in query.attrs_of(e)
            )
            key = (e, tuple(combo_map[x] for x in attrs_here))
            n_e = class_sizes.get(key, 0)
            if n_e == 0:
                skip = True
                break
            sizes_c[e] = n_e
        if skip:
            continue
        sub_rels = {}
        for e in query.edge_names:
            attrs_here = [x for x in join_attrs if x in query.attrs_of(e)]
            parts = [
                [
                    row
                    for row, tags in part
                    if all(tags[x] == combo_map[x] for x in attrs_here)
                ]
                for part in tagged[e]
            ]
            sub_rels[e] = DistRelation(e, working[e].attrs, parts, owned=True)
        shares = optimal_join_shares(query, sizes_c, p)
        piece = hypercube_join(
            group, query, sub_rels, shares,
            label=f"{label}/hc{combo_idx}", salt=combo_idx * 7919,
        )
        pieces.append(piece)

    if not pieces:
        return DistRelation.empty("result", schema, group.size)
    return concat_distrels("result", group, pieces).aligned(schema)
