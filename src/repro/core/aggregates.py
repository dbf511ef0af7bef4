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

Annotated distributed relations carry their annotation as a trailing
payload column named ``#w:<relation>``; all join machinery treats payload
columns as inert cargo, so Theorem 9 reduces to running the plain
output-optimal join on the residual query (see
:func:`repro.core.runner.mpc_join_aggregate`).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.data.relation import Row, project_row
from repro.errors import QueryError
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.mpc.primitives import (
    coordinator_for,
    fold_by_key,
    global_sum,
    multi_search,
    sum_by_key,
)
from repro.mpc.substrate import column_tags
from repro.query.ghd import OUTPUT_EDGE, OutputJoinTree
from repro.query.hypergraph import Hypergraph, join_tree
from repro.semiring import Semiring

__all__ = [
    "mpc_count",
    "mpc_group_by_count",
    "mpc_subset_sizes",
    "aggregate_out",
    "aggregate_total",
    "annotated_reduce",
    "weight_column",
]


def weight_column(rel: DistRelation) -> str:
    """The (unique) annotation column of an annotated distributed relation."""
    cols = [a for a in rel.attrs if a.startswith("#w:")]
    if len(cols) != 1:
        raise QueryError(
            f"relation {rel.name!r} has {len(cols)} annotation columns; expected 1"
        )
    return cols[0]


def _fold_to_root(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    weights: dict[str, list[list[tuple[Row, Any]]]],
    plus: Callable[[Any, Any], Any],
    times: Callable[[Any, Any], Any],
    label: str,
    root: str | None = None,
) -> tuple[str, list[list[tuple[Row, Any]]]]:
    """Shared bottom-up fold: every tuple accumulates its subtree aggregate.

    ``weights[name]`` holds per-server ``(row, w)`` pairs.  Children are
    aggregated by their separator key (sum-by-key with ``plus``) and folded
    into their parent's weights with ``times``; parent rows with no match
    are dropped (they extend to nothing).  Returns the root's pairs.
    """
    tree = join_tree(query, root=root)
    working = {n: weights[n] for n in weights}
    modified: set[str] = set()
    for node in tree.bottom_up():
        par = tree.parent[node]
        if par is None:
            continue
        shared = tuple(sorted(query.attrs_of(node) & query.attrs_of(par)))
        child_rel = rels[node]
        if shared:
            pos_c = child_rel.positions(shared)
            if node not in modified:
                # Pristine leaf: its pairs still align with the relation's
                # parts, so the aggregation fuses onto the (cached) run.
                agg = fold_by_key(
                    group, child_rel, shared, plus=plus,
                    label=f"{label}/agg-{node}",
                    values=[[w for _row, w in part] for part in working[node]],
                )
            else:
                agg = sum_by_key(
                    group,
                    [
                        [(project_row(row, pos_c), w) for row, w in part]
                        for part in working[node]
                    ],
                    plus=plus,
                    label=f"{label}/agg-{node}",
                    tags=column_tags((child_rel, pos_c)),
                )
            par_rel = rels[par]
            pos_p = par_rel.positions(shared)
            found = multi_search(
                group,
                [
                    [(project_row(row, pos_p), (row, w)) for row, w in part]
                    for part in working[par]
                ],
                agg,
                f"{label}/fold-{node}",
                tags=column_tags((par_rel, pos_p), (child_rel, pos_c)),
            )
            working[par] = [
                [
                    (row, times(w, total))
                    for key, (row, w), pk, total in part
                    if pk == key
                ]
                for part in found
            ]
            modified.add(par)
        else:
            # Disconnected glue edge: the child contributes a scalar factor.
            partials = []
            for part in working[node]:
                acc = None
                for _row, w in part:
                    acc = w if acc is None else plus(acc, w)
                partials.append(acc)
            non_empty = [w for w in partials if w is not None]
            if not non_empty:
                working[par] = [[] for _ in range(group.size)]
                modified.add(par)
                continue
            total = non_empty[0]
            for w in non_empty[1:]:
                total = plus(total, w)
            group.broadcast([total], f"{label}/scalar-{node}")
            # Scaling in place keeps the pairs aligned with the relation's
            # parts, so the parent still counts as pristine for fusing.
            working[par] = [
                [(row, times(w, total)) for row, w in part]
                for part in working[par]
            ]
    return tree.root, working[tree.root]


def mpc_count(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    label: str = "count",
) -> int:
    """``|Q(R)|`` in O(1) rounds with linear load (paper Corollary 4)."""
    weights = {
        n: [[(row, 1) for row in part] for part in rels[n].parts] for n in rels
    }
    _root, pairs = _fold_to_root(
        group, query, rels, weights,
        plus=lambda a, b: a + b, times=lambda a, b: a * b,
        label=label,
    )
    return int(
        global_sum(group, [sum(w for _r, w in part) for part in pairs], f"{label}/total")
    )


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
    root = None
    for n in query.edge_names:
        if set(group_attrs) <= query.attrs_of(n):
            root = n
            break
    if root is None:
        raise QueryError(
            f"no relation contains all group attributes {group_attrs}"
        )
    weights = {
        n: [[(row, 1) for row in part] for part in rels[n].parts] for n in rels
    }
    _root, pairs = _fold_to_root(
        group, query, rels, weights,
        plus=lambda a, b: a + b, times=lambda a, b: a * b,
        label=label, root=root,
    )
    pos = rels[root].positions(group_attrs)
    return sum_by_key(
        group,
        [
            [(project_row(row, pos), w) for row, w in part]
            for part in pairs
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
    weights = {}
    for n in rels:
        wcol = weight_column(rels[n])
        wpos = rels[n].positions((wcol,))[0]
        weights[n] = [
            [(row, row[wpos]) for row in part] for part in rels[n].parts
        ]
    _root, pairs = _fold_to_root(
        group, query, rels, weights,
        plus=semiring.plus, times=semiring.times, label=label,
    )
    partials = []
    for part in pairs:
        acc = semiring.zero
        for _row, w in part:
            acc = semiring.plus(acc, w)
        partials.append(acc)
    coord = coordinator_for(group, f"{label}/gather")
    gathered = group.gather([[w] for w in partials], f"{label}/gather", dst=coord)
    total = semiring.zero
    for w in gathered:
        total = semiring.plus(total, w)
    return total


def annotated_reduce(
    group: Group,
    query: Hypergraph,
    rels: dict[str, DistRelation],
    semiring: Semiring,
    label: str = "a_reduce",
) -> tuple[Hypergraph, dict[str, DistRelation]]:
    """Reduce procedure with annotation folding (Section 6 preprocessing).

    When edge ``e`` is contained in ``e'``, every tuple of ``R(e')`` matches
    exactly one tuple of ``R(e)`` (dangling-free, set semantics); the
    container's annotation is multiplied by the matched annotation and the
    contained relation is dropped.
    """
    reduced_query, witness = query.reduce()
    out = dict(rels)
    for removed, survivor in witness.items():
        child = out[removed]
        parent = out[survivor]
        key_attrs = tuple(sorted(query.attrs_of(removed)))
        c_wcol = weight_column(child)
        p_wcol = weight_column(parent)
        c_pos = child.positions(key_attrs)
        c_wpos = child.positions((c_wcol,))[0]
        p_pos = parent.positions(key_attrs)
        p_wpos = parent.positions((p_wcol,))[0]
        y_parts = [
            [(project_row(row, c_pos), row[c_wpos]) for row in part]
            for part in child.parts
        ]
        x_parts = [
            [(project_row(row, p_pos), row) for row in part]
            for part in parent.parts
        ]
        found = multi_search(
            group, x_parts, y_parts, f"{label}/{removed}",
            tags=column_tags((parent, p_pos), (child, c_pos)),
        )
        new_parts = []
        for part in found:
            rows = []
            for key, row, pk, w in part:
                if pk == key:
                    row = list(row)
                    row[p_wpos] = semiring.times(row[p_wpos], w)
                    rows.append(tuple(row))
            new_parts.append(rows)
        out[survivor] = parent.with_parts(new_parts, owned=True)
        del out[removed]
    return reduced_query, out


def aggregate_out(
    group: Group,
    scaffold: OutputJoinTree,
    rels: dict[str, DistRelation],
    semiring: Semiring,
    label: str = "aggro",
) -> dict[str, DistRelation]:
    """``LinearAggroYannakakis`` (paper Algorithm 1 / Lemma 3).

    Walks the join tree of ``E + {y}`` bottom-up.  At each real node it
    aggregates away the non-output attributes topping out there
    (sum-by-key with the semiring's ``plus``) and folds the aggregate into
    its parent's annotations (multi-search + ``times``).  Nodes whose
    parent is the virtual output root become the residual relations.

    Returns:
        Residual relations keyed by edge name, each with schema
        ``sorted(e & y) + (weight column,)`` — the input of the downstream
        output-optimal join (Theorem 9).
    """
    query = scaffold.query
    y = scaffold.output_attrs
    tree = scaffold.tree
    if not y:
        raise QueryError("use aggregate_total for y = {}")

    working = dict(rels)
    schema_attrs: dict[str, tuple[str, ...]] = {
        n: tuple(sorted(query.attrs_of(n))) for n in query.edge_names
    }
    residual: dict[str, DistRelation] = {}
    # Scalar contributed by components sharing no output attribute
    # (disconnected children of the virtual root); None means "kills the
    # whole result" (an empty component), absent key means no factor.
    scalar_factor: list[Any] = []

    for node in [n for n in tree.bottom_up() if n != OUTPUT_EDGE]:
        rel = working[node]
        wcol = weight_column(rel)
        wpos = rel.positions((wcol,))[0]
        real_attrs = schema_attrs[node]
        to_agg = tuple(
            x for x in real_attrs
            if x not in y and scaffold.top_attr_node(x) == node
        )
        keep = tuple(a for a in real_attrs if a not in to_agg)
        parent = tree.parent[node]

        if keep:
            keep_pos = rel.positions(keep)
            agg = fold_by_key(
                group, rel, keep, plus=semiring.plus,
                label=f"{label}/agg-{node}",
                values=[
                    rel.column_values(i, wpos) for i in range(rel.num_parts)
                ],
            )
            agg_rel = DistRelation(
                node, keep + (wcol,), [[k + (w,) for k, w in part] for part in agg],
                owned=True,
            )
            if parent == OUTPUT_EDGE or parent is None:
                residual[node] = agg_rel
            else:
                prel = working[parent]
                p_wcol = weight_column(prel)
                p_wpos = prel.positions((p_wcol,))[0]
                p_pos = prel.positions(keep)
                found = multi_search(
                    group,
                    [
                        [(project_row(row, p_pos), row) for row in part]
                        for part in prel.parts
                    ],
                    agg,
                    f"{label}/fold-{node}",
                    tags=column_tags((prel, p_pos), (rel, keep_pos)),
                )
                new_parts = []
                for part in found:
                    rows = []
                    for key, row, pk, w in part:
                        if pk == key:
                            row = list(row)
                            row[p_wpos] = semiring.times(row[p_wpos], w)
                            rows.append(tuple(row))
                    new_parts.append(rows)
                working[parent] = prel.with_parts(new_parts, owned=True)
        else:
            # Everything aggregated away: the node contributes a scalar.
            partials = []
            for part in rel.parts:
                acc = None
                for row in part:
                    w = row[wpos]
                    acc = w if acc is None else semiring.plus(acc, w)
                partials.append(acc)
            non_empty = [w for w in partials if w is not None]
            total = None
            if non_empty:
                total = non_empty[0]
                for w in non_empty[1:]:
                    total = semiring.plus(total, w)
            group.broadcast([total], f"{label}/scalar-{node}")
            if parent == OUTPUT_EDGE or parent is None:
                # Disconnected component with no output attributes: it
                # contributes a global scalar multiplier to every result.
                scalar_factor.append(total)
                continue
            prel = working[parent]
            p_wcol = weight_column(prel)
            p_wpos = prel.positions((p_wcol,))[0]
            if total is None:
                working[parent] = prel.with_parts(
                    [[] for _ in range(group.size)], owned=True
                )
            else:
                new_parts = []
                for part in prel.parts:
                    rows = []
                    for row in part:
                        row = list(row)
                        row[p_wpos] = semiring.times(row[p_wpos], total)
                        rows.append(tuple(row))
                    new_parts.append(rows)
                working[parent] = prel.with_parts(new_parts, owned=True)
    if not residual:
        raise QueryError("no residual relations produced; is y empty?")
    if scalar_factor:
        # Fold global scalars into one residual relation's annotations (an
        # empty component zeroes everything out).
        target = sorted(residual)[0]
        rel = residual[target]
        wcol = weight_column(rel)
        wpos = rel.positions((wcol,))[0]
        if any(w is None for w in scalar_factor):
            residual[target] = rel.with_parts(
                [[] for _ in range(group.size)], owned=True
            )
        else:
            factor = scalar_factor[0]
            for w in scalar_factor[1:]:
                factor = semiring.times(factor, w)
            new_parts = []
            for part in rel.parts:
                rows = []
                for row in part:
                    row = list(row)
                    row[wpos] = semiring.times(row[wpos], factor)
                    rows.append(tuple(row))
                new_parts.append(rows)
            residual[target] = rel.with_parts(new_parts, owned=True)
    return residual
