"""The classic RAM-model Yannakakis algorithm (correctness oracle).

Computes acyclic joins in ``O(IN + OUT)`` time: full reducer (two semi-join
sweeps over a join tree) followed by pairwise joins along the tree.  Also
provides the counting variant (``join_size``) that aggregates instead of
materializing — the RAM analogue of the paper's Corollary 4 — and
``subset_join_sizes`` which computes ``|Q(R, S)|`` for every ``S`` (the
statistics behind the per-instance lower bound, eq. 2).
"""

from __future__ import annotations

from itertools import combinations

from repro.data.instance import Instance
from repro.data.relation import Relation, Row, project_row
from repro.query.hypergraph import JoinTree, join_tree
from repro.ram.joins import natural_join

__all__ = [
    "yannakakis",
    "join_size",
    "subset_join_sizes",
    "group_by_count",
]


def yannakakis(instance: Instance, name: str = "result") -> Relation:
    """Full join results of an acyclic instance, as a relation over all attrs.

    The output schema is the query's attributes in sorted order.  Works for
    annotated instances too (annotations multiply along the join).
    """
    reduced = instance.without_dangling()
    tree = join_tree(instance.query)
    rels = {n: reduced.relations[n] for n in reduced.relations}
    for node in tree.bottom_up():
        par = tree.parent[node]
        if par is not None:
            rels[par] = natural_join(rels[par], rels[node])
    result = rels[tree.root]
    ordered = tuple(sorted(instance.query.attributes))
    return Relation(
        name,
        ordered,
        (project_row(r, result.positions(ordered)) for r in result.rows),
        annotations=result.annotations,
        semiring=result.semiring,
    )


def _root_counts(instance: Instance, tree: JoinTree) -> dict[Row, int]:
    """The counting fold: each root tuple's number of full-join extensions.

    Bottom-up over ``tree``: each tuple carries the number of result
    extensions within its subtree, and a parent tuple multiplies in the
    summed counts of its children's tuples that agree with it.
    """
    query = instance.query
    counts: dict[str, dict[Row, int]] = {
        n: {row: 1 for row in instance.relations[n].rows}
        for n in instance.relations
    }
    for node in tree.bottom_up():
        par = tree.parent[node]
        if par is None:
            continue
        shared = tuple(sorted(query.attrs_of(node) & query.attrs_of(par)))
        if shared:
            pos_c = instance.relations[node].positions(shared)
            agg: dict[Row, int] = {}
            for row, c in counts[node].items():
                k = project_row(row, pos_c)
                agg[k] = agg.get(k, 0) + c
            pos_p = instance.relations[par].positions(shared)
            new_counts: dict[Row, int] = {}
            for row, c in counts[par].items():
                factor = agg.get(project_row(row, pos_p), 0)
                if factor:
                    new_counts[row] = c * factor
            counts[par] = new_counts
        else:
            total = sum(counts[node].values())
            counts[par] = (
                {row: c * total for row, c in counts[par].items()} if total else {}
            )
    return counts[tree.root]


def join_size(instance: Instance) -> int:
    """``|Q(R)|`` without materializing results (counting Yannakakis)."""
    return sum(_root_counts(instance, join_tree(instance.query)).values())


def subset_join_sizes(instance: Instance) -> dict[frozenset[str], int]:
    """``|Q(R, S)|`` for every non-empty ``S subset-of E`` (paper eq. 2 input).

    ``Q(R, S)`` is the set of tuple combinations from the relations in ``S``
    that appear in some full join result, i.e. the distinct projections of
    ``Q(R)`` onto the union of ``S``'s attribute sets.  Computes the full
    result once and counts distinct projections per subset.
    """
    full = yannakakis(instance)
    query = instance.query
    names = list(query.edge_names)
    sizes: dict[frozenset[str], int] = {}
    for k in range(1, len(names) + 1):
        for combo in combinations(names, k):
            s = frozenset(combo)
            attrs = tuple(sorted(frozenset().union(*(query.attrs_of(n) for n in combo))))
            pos = full.positions(attrs)
            sizes[s] = len({project_row(r, pos) for r in full.rows})
    return sizes


def group_by_count(instance: Instance, group_attrs: tuple[str, ...]) -> dict[Row, int]:
    """``COUNT(*) GROUP BY group_attrs`` over the full join (RAM oracle)."""
    tree = join_tree(instance.query)
    # Count extensions per root tuple (as in join_size), then aggregate the
    # root tuples by their group key -- valid only when the group attributes
    # all live in the root relation; otherwise fall back to materializing.
    if set(group_attrs) <= set(instance.query.attrs_of(tree.root)):
        pos = instance.relations[tree.root].positions(group_attrs)
        out: dict[Row, int] = {}
        for row, c in _root_counts(instance, tree).items():
            k = project_row(row, pos)
            out[k] = out.get(k, 0) + c
        return out

    full = yannakakis(instance)
    pos = full.positions(group_attrs)
    out = {}
    for row in full.rows:
        k = project_row(row, pos)
        out[k] = out.get(k, 0) + 1
    return out
