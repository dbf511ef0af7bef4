"""Output-optimal algorithm for arbitrary acyclic joins (paper Section 5.1).

Load O(IN/p + sqrt(IN * OUT)/p) — Theorem 7, an O(sqrt(OUT/IN))-factor
improvement over Yannakakis, matched by the Theorem 8 lower bound for
OUT <= p*IN.

Sketch: pick an internal join-tree node ``e0`` whose children
``e1, ..., ek`` are all leaves, and a threshold ``tau = sqrt(OUT/Nbeta)``.
Each child relation splits into heavy/light by the degree of its join
assignment ``s_i = e0 & e_i``; the join decomposes into ``2^k`` sub-joins:

* patterns containing a heavy child ``e_i*``: semi-join ``e0`` by the heavy
  side, fold everything else "by any order" (every intermediate stays below
  ``OUT/tau`` because each of its tuples extends through >= tau heavy
  partners), then one final output-optimal binary join;
* the all-light pattern further splits ``e0`` by the *product* of its
  children degrees: heavy ``e0`` tuples form a tall-flat join solved by the
  Section 3.2 instance-optimal algorithm; light ``e0`` tuples produce an
  intermediate of size <= Nbeta * tau that replaces ``e0`` in a recursion
  on the rest of the join tree.
"""

from __future__ import annotations

import math
from itertools import product as iter_product
from typing import Any, Sequence

from repro.core.aggregates import mpc_count
from repro.core.binary_join import binary_join
from repro.core.common import canonical_attrs, concat_distrels
from repro.core.rhierarchical import rhierarchical_join
from repro.data.relation import Row, project_row
from repro.errors import QueryError
from repro.mpc.dangling import reduce_instance, remove_dangling
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.mpc.primitives import (
    attach_degrees,
    count_by_key,
    multi_search,
    search_rows,
    semi_join,
)
from repro.query.hypergraph import Hypergraph, JoinTree, join_tree

__all__ = ["acyclic_join"]


def split_point(
    tree: JoinTree, sizes: dict[str, float], out_size: float
) -> tuple[str, list[str], list[str], float]:
    """Section 5.1's split of a join tree of at least three relations with
    ``sizes[n]`` rows each: ``(e0, children, E_bar, tau)``.  ``e0`` is the
    deepest internal node whose children are all leaves (least name among
    equals), and ``tau = sqrt(OUT / N_beta)`` with ``N_beta`` the rows
    outside its children (both at least 1)."""
    e0 = sorted(tree.internal_nodes_with_leaf_children(), key=lambda n: (-tree.depth(n), n))[0]
    children = tree.children[e0]
    e_bar = [n for n in sizes if n != e0 and n not in children]
    n_beta = max(1, sum(sizes.values()) - sum(sizes[c] for c in children))
    return e0, children, e_bar, max(1.0, math.sqrt(out_size / n_beta))


def acyclic_join(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    label: str = "acyclic",
) -> DistRelation:
    """Compute an acyclic join with output-optimal load (Theorem 7).

    Args:
        group: Server group (size p).
        query: An acyclic hypergraph.
        rels: Distributed relations (payload columns allowed).

    Returns:
        Join results in canonical schema order.
    """
    if not query.is_acyclic():
        raise QueryError(f"{query.name} is cyclic")
    working = remove_dangling(group, query, rels, f"{label}/dangling")
    wq, working = reduce_instance(group, query, working, f"{label}/reduce")
    out_size = mpc_count(group, wq, working, f"{label}/out")
    schema = canonical_attrs([working[n].attrs for n in wq.edge_names])
    if out_size == 0:
        return DistRelation.empty("result", schema, group.size)
    return _solve(group, wq, working, out_size, label, depth=0)


# ----------------------------------------------------------------------
def _solve(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    out_size: int,
    label: str,
    depth: int,
) -> DistRelation:
    schema = canonical_attrs([rels[n].attrs for n in query.edge_names])
    names = list(query.edge_names)
    if len(names) == 1:
        return rels[names[0]].aligned(schema, "result")
    if len(names) == 2:
        joined = binary_join(
            group, rels[names[0]], rels[names[1]], f"{label}/d{depth}/bin"
        )
        return joined.aligned(schema, "result")

    tree = join_tree(query)
    e0, children, e_bar, tau = split_point(
        tree, {n: rels[n].total_size() for n in names}, out_size
    )

    seps = {
        ei: tuple(sorted(query.attrs_of(e0) & query.attrs_of(ei)))
        for ei in children
    }

    # ---- Step 1: heavy/light split of every child relation. ------------
    # attach_degrees fuses the count + lookup into one sort pass; its run
    # is typically already cached from the OUT computation's fold over the
    # same separator.
    heavy: dict[str, DistRelation] = {}
    light: dict[str, DistRelation] = {}
    light_deg_tables: dict[str, list[list[tuple[Any, int]]]] = {}
    for ei in children:
        rel = rels[ei]
        withdeg = attach_degrees(
            group, rel, seps[ei], f"{label}/d{depth}/deg-{ei}"
        )
        h_parts, l_parts = [], []
        for part in withdeg:
            hp, lp = [], []
            for row, deg in part:
                if deg >= tau:
                    hp.append(row)
                else:
                    lp.append(row)
            h_parts.append(hp)
            l_parts.append(lp)
        heavy[ei] = DistRelation(ei, rel.attrs, h_parts, owned=True)
        light[ei] = DistRelation(ei, rel.attrs, l_parts, owned=True)
        light_deg_tables[ei] = count_by_key(
            group, light[ei], seps[ei], label=f"{label}/d{depth}/ldeg-{ei}"
        )

    fold_order = _fold_order(tree, e0, e_bar)
    pieces: list[DistRelation] = []

    # ---- Step 2: every pattern with at least one heavy child. ----------
    for pattern in iter_product(("H", "L"), repeat=len(children)):
        if "H" not in pattern:
            continue
        chosen = {
            ei: (heavy[ei] if tag == "H" else light[ei])
            for ei, tag in zip(children, pattern)
        }
        istar = children[pattern.index("H")]
        plabel = f"{label}/d{depth}/p{''.join(pattern)}"
        if any(chosen[ei].total_size() == 0 for ei in children):
            continue
        r0 = semi_join(group, rels[e0], chosen[istar], f"{plabel}/semi")
        acc = r0
        for ei in children:
            if ei != istar:
                acc = binary_join(group, acc, chosen[ei], f"{plabel}/fold-{ei}")
        for nb in fold_order:
            acc = binary_join(group, acc, rels[nb], f"{plabel}/bar-{nb}")
        final = binary_join(group, acc, chosen[istar], f"{plabel}/final")
        pieces.append(final)

    # ---- Step 3: the all-light pattern. ---------------------------------
    # Split R(e0) by the product of its children's light degrees.  The
    # first lookup rides r0's cached sorted run; the later ones thread the
    # rearranged intermediates through the generic multi-search.
    r0 = rels[e0]
    prod_parts: list[list[tuple[Row, float]]] = [
        [(row, 1.0) for row in part] for part in r0.parts
    ]
    for idx, ei in enumerate(children):
        pos_sep = r0.positions(seps[ei])
        if idx == 0:
            found = search_rows(
                group, r0, seps[ei], light_deg_tables[ei],
                f"{label}/d{depth}/prod-{ei}", payloads=prod_parts,
            )
        else:
            x_parts = [
                [(project_row(row, pos_sep), (row, pr)) for row, pr in part]
                for part in prod_parts
            ]
            found = multi_search(
                group, x_parts, light_deg_tables[ei],
                f"{label}/d{depth}/prod-{ei}",
            )
        prod_parts = [
            [
                (row, pr * (d if pk == key else 0))
                for key, (row, pr), pk, d in part
            ]
            for part in found
        ]
    h0_parts = [[r for r, pr in part if pr >= tau] for part in prod_parts]
    l0_parts = [[r for r, pr in part if pr < tau] for part in prod_parts]
    rh0 = DistRelation(e0, r0.attrs, h0_parts, owned=True)
    rl0 = DistRelation(e0, r0.attrs, l0_parts, owned=True)

    # (3.1) Heavy e0 tuples: a tall-flat join, solved instance-optimally.
    if rh0.total_size() > 0:
        plabel = f"{label}/d{depth}/H0"
        acc = rh0
        for nb in fold_order:
            acc = binary_join(group, acc, rels[nb], f"{plabel}/bar-{nb}")
        tf_rels: dict[str, DistRelation] = {"__r0": acc}
        for ei in children:
            tf_rels[ei] = binary_join(
                group, rh0, light[ei], f"{plabel}/wing-{ei}", name=ei
            )
        if all(r.total_size() > 0 for r in tf_rels.values()):
            tf_query = Hypergraph(
                {
                    n: [a for a in r.attrs if not a.startswith("#")]
                    for n, r in tf_rels.items()
                },
                name="tallflat",
            )
            tf_result = rhierarchical_join(
                group, tf_query, tf_rels, f"{plabel}/tf"
            )
            pieces.append(tf_result)

    # (3.2) Light e0 tuples: fold the light wings, recurse on the rest.
    if rl0.total_size() > 0:
        plabel = f"{label}/d{depth}/L0"
        acc = rl0
        for ei in children:
            acc = binary_join(group, acc, light[ei], f"{plabel}/fold-{ei}")
        if acc.total_size() > 0:
            if not e_bar:
                pieces.append(acc)
            else:
                res_edges = {
                    n: query.attrs_of(n) for n in e_bar
                }
                res_edges[e0] = frozenset(
                    a for a in acc.attrs if not a.startswith("#")
                )
                res_query = Hypergraph(res_edges, name=f"{query.name}-res")
                res_rels = {n: rels[n] for n in e_bar}
                res_rels[e0] = acc
                res_rels = remove_dangling(
                    group, res_query, res_rels, f"{plabel}/dangling"
                )
                sub = _solve(
                    group, res_query, res_rels, out_size,
                    f"{plabel}/rec", depth + 1,
                )
                pieces.append(sub)

    if not pieces:
        return DistRelation.empty("result", schema, group.size)
    return concat_distrels("result", group, pieces).aligned(schema)


def _fold_order(tree, e0: str, e_bar: Sequence[str]) -> list[str]:
    """BFS order over the remaining tree so each fold shares a separator."""
    remaining = set(e_bar)
    order: list[str] = []
    frontier = [e0]
    while frontier:
        nxt: list[str] = []
        for node in frontier:
            neighbors = list(tree.children[node])
            par = tree.parent[node]
            if par is not None:
                neighbors.append(par)
            for nb in neighbors:
                if nb in remaining:
                    remaining.remove(nb)
                    order.append(nb)
                    nxt.append(nb)
        frontier = nxt
    if remaining:  # pragma: no cover - tree connectivity guarantees coverage
        order.extend(sorted(remaining))
    return order
