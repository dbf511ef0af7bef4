"""Join-aggregate queries over annotated relations (paper Section 6).

* :func:`mpc_count` — ``|Q(R)|`` with linear load (Corollary 4): the
  primitive every output-sensitive algorithm calls first.
* :func:`mpc_group_by_count` — ``COUNT(*) GROUP BY`` for group attributes
  contained in one relation (the statistic behind Section 3.2's per-value
  subset sizes).
* :func:`aggregate_out` — ``LinearAggroYannakakis`` (Algorithm 1): removes
  all non-output attributes of a free-connex query with linear load,
  leaving an acyclic query over output attributes only (Lemma 3).
* :func:`annotated_reduce` — the reduce procedure that folds a contained
  relation's annotations into its container (Section 6 preprocessing).

All four, and :func:`aggregate_total`, are one annotated bottom-up fold
(:func:`_fold`) over a relation and its per-part weights: 1 per row for
the counts, the annotation column for the rest.  At each tree edge the
child's weights are summed per separator and multiplied into the
parent's, parent rows with no match dropped; a child sharing no attribute
with its parent contributes one broadcast scalar.

Annotated distributed relations carry their annotation as a trailing
payload column named ``#w:<relation>``; all join machinery treats payload
columns as inert cargo, so Theorem 9 reduces to running the plain
output-optimal join on the residual query (see
:func:`repro.core.runner.mpc_join_aggregate`).
"""

from __future__ import annotations

from functools import reduce
from typing import Any, Iterable

from repro.data.relation import Row, project_row
from repro.errors import QueryError
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.mpc.primitives import (
    _flat,
    coordinator_for,
    fold_by_key,
    global_sum,
    match_keys,
    sum_by_key,
)
from repro.mpc.substrate import projected_keys
from repro.query.ghd import OutputJoinTree
from repro.query.hypergraph import Hypergraph, join_tree
from repro.semiring import COUNT, Semiring

__all__ = [
    "mpc_count",
    "mpc_group_by_count",
    "mpc_subset_sizes",
    "aggregate_out",
    "aggregate_total",
    "annotated_reduce",
    "weight_column",
]

#: A relation and its weights, ``weights[i][j]`` for row ``parts[i][j]``.
_Weighted = tuple[DistRelation, list[list[Any]]]


def weight_column(rel: DistRelation) -> str:
    """The (unique) annotation column of an annotated distributed relation."""
    cols = [a for a in rel.attrs if a.startswith("#w:")]
    if len(cols) != 1:
        raise QueryError(
            f"relation {rel.name!r} has {len(cols)} annotation columns; expected 1"
        )
    return cols[0]


def _annotations(rel: DistRelation) -> _Weighted:
    """``rel`` weighted by its own annotation column."""
    wpos = rel.positions((weight_column(rel),))[0]
    return rel, [rel.column_values(i, wpos) for i in range(rel.num_parts)]


def _ones(rel: DistRelation) -> _Weighted:
    """``rel`` weighted 1 per row (counting)."""
    return rel, [[1] * len(part) for part in rel.parts]


def _fold(
    group: Group,
    query: Hypergraph,
    edges: Iterable[tuple[str, str]],
    state: dict[str, _Weighted],
    semiring: Semiring,
    label: str,
    keyed: bool = False,
) -> tuple[dict[str, list[list[tuple[Row, Any]]]], list[Any]]:
    """The annotated bottom-up fold: every Section 6 procedure is one.

    ``edges`` lists ``(child, parent)`` pairs, each child after all of its
    own children.  The child's weights are summed per separator (the
    attributes it shares with its parent) with ``semiring.plus`` — on the
    child's own sorted run while it is untouched — and multiplied into
    the parent's weights with ``semiring.times`` through
    :func:`~repro.mpc.primitives.match_keys`, the equality match
    :func:`~repro.mpc.primitives.semi_join` uses: the parent's cached key
    projections against the sums' keys in one predecessor search, the
    kept rows and their products gathered by index.  Parent rows with no
    match are dropped: they extend to nothing below, so the fold keeps
    exactly the tuples that have a completion in their subtree, with no
    full reducer in front of it.

    A child sharing no attribute with its parent contributes one scalar,
    its total, broadcast to every server; an empty child broadcasts
    ``None`` and empties its parent.

    ``state`` is updated in place.  A parent outside it (the virtual
    output edge) takes nothing: its children come back as residual tables
    (per-server ``(separator key, sum)`` pairs) and their scalars as
    global factors, in fold order.

    With ``keyed`` every child's separator is its whole schema (a
    contained relation, whose set-semantics rows are their own keys), so
    its weights are searched without a sum, under the child's name alone.
    """
    plus, times = semiring.plus, semiring.times
    residual: dict[str, list[list[tuple[Row, Any]]]] = {}
    factors: list[Any] = []
    for node, par in edges:
        rel, weights = state[node]
        sep = tuple(sorted(query.attrs_of(node) & query.attrs_of(par)))
        if not sep:
            partials = [reduce(plus, ws) for ws in weights if ws]
            total = reduce(plus, partials) if partials else None
            group.broadcast([total], f"{label}/scalar-{node}")
            if par not in state:
                factors.append(total)
                continue
            prel, pweights = state[par]
            if total is None:
                state[par] = (
                    prel.with_parts([[] for _ in range(group.size)], owned=True),
                    [[] for _ in range(group.size)],
                )
            else:
                # Scaling keeps the parent's rows: it stays untouched.
                state[par] = prel, [[times(w, total) for w in ws] for ws in pweights]
            continue
        pos = rel.positions(sep)
        if keyed:
            keys = projected_keys(rel, pos)
            table = [list(zip(ks, ws)) for ks, ws in zip(keys, weights)]
        else:
            table = fold_by_key(
                group, rel, sep, plus=plus, label=f"{label}/agg-{node}",
                values=weights,
            )
        if par not in state:
            residual[node] = table
            continue
        prel, pweights = state[par]
        ppos = prel.positions(sep)
        x_at, t_at, cuts = match_keys(
            group,
            projected_keys(prel, ppos),
            [[key for key, _t in part] for part in table],
            f"{label}/{node}" if keyed else f"{label}/fold-{node}",
        )
        rows, ws, ts = _flat(prel.parts), _flat(pweights), _flat(table)
        spans = list(zip(cuts, cuts[1:]))
        state[par] = (
            prel.with_parts(
                [list(map(rows.__getitem__, x_at[a:b])) for a, b in spans], owned=True
            ),
            [
                [times(ws[i], ts[j][1]) for i, j in zip(x_at[a:b], t_at[a:b])]
                for a, b in spans
            ],
        )
    return residual, factors


def _fold_tree(
    group: Group,
    query: Hypergraph,
    state: dict[str, _Weighted],
    semiring: Semiring,
    label: str,
    root: str | None = None,
) -> _Weighted:
    """:func:`_fold` over the join tree of ``query``: the root's weights,
    each its subtree's aggregate."""
    tree = join_tree(query, root=root)
    edges = [(n, tree.parent[n]) for n in tree.bottom_up() if n != tree.root]
    _fold(group, query, edges, state, semiring, label)
    return state[tree.root]


def mpc_count(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    label: str = "count",
) -> int:
    """``|Q(R)|`` in O(1) rounds with linear load (paper Corollary 4)."""
    _rel, weights = _fold_tree(
        group, query, {n: _ones(rels[n]) for n in rels}, COUNT, label
    )
    return int(global_sum(group, [sum(ws) for ws in weights], f"{label}/total"))


def mpc_group_by_count(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    group_attrs: tuple[str, ...],
    label: str = "groupby",
) -> list[list[tuple[Row, int]]]:
    """``COUNT(*) GROUP BY group_attrs`` with linear load.

    Requires some relation to contain all the grouping attributes (true for
    every use in the paper's algorithms: grouping by a root attribute that
    all edges share).  Returns per-server ``(key, count)`` pairs, each key
    exactly once, counting only keys with a positive count.
    """
    root = next(
        (n for n in query.edge_names if set(group_attrs) <= query.attrs_of(n)), None
    )
    if root is None:
        raise QueryError(
            f"no relation contains all group attributes {group_attrs}"
        )
    rel, weights = _fold_tree(
        group, query, {n: _ones(rels[n]) for n in rels}, COUNT, label, root=root
    )
    pos = rel.positions(group_attrs)
    return sum_by_key(
        group,
        [
            [(project_row(row, pos), w) for row, w in zip(part, ws)]
            for part, ws in zip(rel.parts, weights)
        ],
        label=f"{label}/final",
    )


def mpc_subset_sizes(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    label: str = "subsets",
) -> dict[frozenset[str], int]:
    """``|join of S|`` for every non-empty subset S of the edges.

    On dangling-free *reduced hierarchical* instances this equals
    ``|Q(R, S)|``: the Theorem 2 proof shows every combination in the
    S-join extends to a full result (tuples fix nested root paths in the
    attribute forest, and each unfixed subtree completes independently).
    That is exactly the statistic the Section 3.2 algorithm needs for the
    per-instance lower bound (eq. 2).  For non-hierarchical queries the
    S-join can overcount ``Q(R, S)`` (e.g. disconnected subsets of the
    line-3 join), which is fine for upper-bound budgets but not for
    evaluating eq. 2 exactly — use :func:`repro.theory.bounds.l_instance`
    for that.  ``2^m`` linear-load count queries; m is constant.
    """
    from itertools import combinations

    names = list(query.edge_names)
    sizes: dict[frozenset[str], int] = {}
    for k in range(1, len(names) + 1):
        for combo in combinations(names, k):
            sub_query = Hypergraph(
                {n: query.attrs_of(n) for n in combo}, name=f"{query.name}-S"
            )
            sizes[frozenset(combo)] = mpc_count(
                group, sub_query, {n: rels[n] for n in combo},
                f"{label}/{'+'.join(combo)}",
            )
    return sizes


def aggregate_total(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    semiring: Semiring,
    label: str = "agg_total",
) -> Any:
    """Total aggregation (``y = {}``): the semiring-valued scalar result."""
    _rel, weights = _fold_tree(
        group, query, {n: _annotations(rels[n]) for n in rels}, semiring, label
    )
    partials = [reduce(semiring.plus, ws, semiring.zero) for ws in weights]
    coord = coordinator_for(group, f"{label}/gather")
    gathered = group.gather([[w] for w in partials], f"{label}/gather", dst=coord)
    return reduce(semiring.plus, gathered, semiring.zero)


def annotated_reduce(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    semiring: Semiring,
    label: str = "a_reduce",
) -> tuple[Hypergraph, dict[str, DistRelation]]:
    """Reduce procedure with annotation folding (Section 6 preprocessing).

    When edge ``e`` is contained in ``e'``, every tuple of ``R(e')``
    matches at most one tuple of ``R(e)`` (set semantics); the container's
    annotation is multiplied by the matched annotation and the contained
    relation is dropped: :func:`_fold` over the removed edges, each a
    child of its survivor, with no sum.  The input need not be
    dangling-free: a container row with no match extends to nothing and
    the fold drops it, and a contained row no container matches is
    dropped with its relation.
    """
    reduced_query, witness = query.reduce()
    state = {n: _annotations(rels[n]) for n in rels}
    _fold(group, query, witness.items(), state, semiring, label, keyed=True)
    out = {n: rel for n, rel in rels.items() if n not in witness}
    for n in set(witness.values()):
        rel, weights = state[n]
        wpos = rel.positions((weight_column(rel),))[0]
        out[n] = rel.with_parts(
            [
                [row[:wpos] + (w,) + row[wpos + 1:] for row, w in zip(part, ws)]
                for part, ws in zip(rel.parts, weights)
            ],
            owned=True,
        )
    return reduced_query, out


def aggregate_out(
    group: Group,
    scaffold: OutputJoinTree,
    rels: dict[str, DistRelation],
    semiring: Semiring,
    label: str = "aggro",
) -> dict[str, DistRelation]:
    """``LinearAggroYannakakis`` (paper Algorithm 1 / Lemma 3).

    :func:`_fold` over the join tree of ``E + {y}``, rooted at the virtual
    output edge.  A real node's separator with its parent is exactly its
    attributes that do not top out there, so summing per separator
    aggregates away the non-output attributes whose ``TOP`` is that node.
    The virtual root's children become the residual relations; the
    scalars of components sharing no output attribute multiply into the
    first of them (an empty component empties it).

    Returns:
        Residual relations keyed by edge name, each with schema
        ``sorted(e & y) + (weight column,)`` — the input of the downstream
        output-optimal join (Theorem 9).
    """
    query = scaffold.query
    y = scaffold.output_attrs
    if not y:
        raise QueryError("use aggregate_total for y = {}")
    tree = scaffold.tree
    tables, factors = _fold(
        group,
        tree.query,
        [(n, tree.parent[n]) for n in scaffold.real_nodes_bottom_up()],
        {n: _annotations(rels[n]) for n in query.edge_names},
        semiring, label,
    )
    if not tables:
        raise QueryError("no residual relations produced; is y empty?")
    if factors:
        # Components sharing no output attribute scale every result: their
        # scalars multiply into one residual table (an empty one empties it).
        first = min(tables)
        if any(f is None for f in factors):
            tables[first] = [[] for _ in tables[first]]
        else:
            factor = reduce(semiring.times, factors)
            tables[first] = [
                [(k, semiring.times(w, factor)) for k, w in part]
                for part in tables[first]
            ]
    return {
        node: DistRelation(
            node,
            tuple(sorted(query.attrs_of(node) & y)) + (weight_column(rels[node]),),
            [[k + (w,) for k, w in part] for part in table],
            owned=True,
        )
        for node, table in tables.items()
    }
