"""The paper's Section 2 MPC primitives, all with linear load, O(1) rounds.

Implemented sort-first (the [14, 18] recipe): the regular-sampling sort
kernel :func:`repro.mpc.substrate.arrange` range-partitions items so that
equal keys are contiguous *across* servers, then per-key logic scans the
:class:`~repro.mpc.substrate.Arrangement` — int64 ranks and flat item
positions in global order, one contiguous slice per server — as arrays,
fetching items by flat position only to emit.  Runs of equal keys are
runs of equal ranks.  Runs that span server boundaries are joined by one
stitch (:func:`_stitch`): each server sends its first and last run and
its run count to a coordinator, which chains the spanning runs
(:func:`_chain_totals`) and replies ``(before, first, last)`` — what that
key's run holds upstream, and the global totals of the server's first and
last runs; every per-key reader takes what it needs from that one reply.
Predecessor searches carry instead (:func:`carry_left`).  The coordinator
traffic is O(p) units per primitive plus at most ``n/p + p`` samples per
sort, never more than the data share the sort balances; partitions stay
within ``n/p + max(n/p, p^2)`` (DESIGN.md section 2; the paper assumes
``IN >= p^{1+eps}`` and uses aggregation trees instead — same interface,
same asymptotics for our experiment range).

Two layers of primitives, one kernel underneath:

*Generic* (item-level, as in the paper's exposition; keys ranked per
call by :func:`repro.mpc.substrate.rank_keys`, the one key rule):

* :func:`sample_sort` — global sort.
* :func:`sum_by_key` — per-key aggregation with any associative operator.
* :func:`multi_numbering` — consecutive numbering 1,2,3,... per key.
* :func:`multi_search` — predecessor search of X elements in Y.

*Relation-aware* (on the relation's sorted run — see
:func:`repro.mpc.substrate.sorted_run`; identical semantics, one PSRS
pass shared by, and paid for once per execution across, all primitives
on the same ``(relation, key)``: the second one posts only its own
boundary steps):

* :func:`count_by_key` / :func:`fold_by_key` — per-key aggregation of a
  relation's rows.
* :func:`search_rows` — predecessor search of a relation's rows in a table.
* :func:`semi_join` — ``R1 semijoin R2`` via predecessor search, on
  :func:`match_keys`, the equality match the Section 6 fold shares.
* :func:`attach_degrees` — annotate rows with their key's global degree
  (the sum-by-key + multi-search combo used by every heavy/light split,
  fused into a single sort pass plus one stitch).

*Two-sided* (one union sort of two relations, paid on every call; the
output-optimal binary join's only sort):

* :func:`arrange_sides` — arrange ``r1 ⊎ r2`` on a shared key, by side.
* :func:`side_degrees` — both sides' degree tables from that arrangement.
* :func:`number_sorted` / :func:`carry_left` — per-key numbering and the
  left-to-right carry over any arrangement.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import chain
from operator import add, itemgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.data.relation import Row
from repro.errors import MPCError
from repro.mpc.cluster import prim_span
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.mpc.substrate import (
    Arrangement,
    arrange,
    coordinator_for,
    coordinator_roundtrip,
    map_keys,
    orderable,
    projected_keys,
    rank_keys,
    sorted_run,
)

__all__ = [
    "orderable",
    "coordinator_for",
    "sample_sort",
    "sum_by_key",
    "multi_numbering",
    "multi_search",
    "count_by_key",
    "fold_by_key",
    "search_rows",
    "semi_join",
    "match_keys",
    "attach_degrees",
    "arrange_sides",
    "side_degrees",
    "number_sorted",
    "carry_left",
    "global_sum",
]

_key0 = itemgetter(0)


def _sort(group: Group, keys: Sequence[list], label: str) -> tuple[list, Arrangement]:
    """A generic primitive's PSRS pass over per-source sort keys, under its
    ``SampleSort`` span: the flat keys and their arrangement."""
    flat, ranks = rank_keys(keys)
    with prim_span(group.cluster, "SampleSort", label):
        return flat, arrange(group, [len(k) for k in keys], ranks, label)


def _flat(parts: Iterable[Iterable[Any]]) -> list:
    return list(chain.from_iterable(parts))


def sample_sort(
    group: Group,
    parts: Sequence[Iterable[Any]],
    key_fn: Callable[[Any], Any],
    label: str,
) -> list[list[tuple[tuple, tuple[int, int], Any]]]:
    """Globally sort items by ``(key, origin-uid)`` via regular sampling.

    Returns per-server lists of ``(orderable_key, uid, item)`` triples in
    global sorted order (server 0's part precedes server 1's, etc.).  Equal
    keys are tie-broken by uid, so heavy keys spread across servers — the
    property that makes the downstream primitives skew-proof.

    Load: ~``n/p`` per server (PSRS guarantees < 2n/p) plus O(p) sampling
    traffic at the coordinator.
    """
    items = [list(part) for part in parts]
    keys = [[orderable(key_fn(item)) for item in part] for part in items]
    flat, arr = _sort(group, keys, label)
    return [
        [(k, (s, j), items[s][j]) for k, s, j in zip(ks, srcs, js)]
        for ks, srcs, js in arr.parts(flat)
    ]


# ----------------------------------------------------------------------
# Per-key scans over an arrangement, stitched across server boundaries
# ----------------------------------------------------------------------

def _runs(
    arr: Arrangement, ranks: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Runs of equal ranks (``arr.ranks``, or ``ranks`` along its order) as
    each server sees them: the positions in ``arr.order`` where one starts
    (a rank change, or a server's first item), their lengths, and the
    ``p + 1`` server boundaries in these."""
    ranks = arr.ranks if ranks is None else ranks
    n = len(arr.order)
    start = np.ones(n, bool)
    np.not_equal(ranks[1:], ranks[:-1], out=start[1:])
    start[[c for c in arr.cuts[:-1] if c < n]] = True
    heads = np.flatnonzero(start)
    lengths = np.diff(np.append(heads, n))
    return heads, lengths, np.searchsorted(heads, arr.cuts).tolist()


def _edge_runs(ranks: list, accs: list, bounds: list[int]) -> list:
    """Per server, ``(rank, acc)`` of its first and last run and how many
    runs it has (``None`` without any): what :func:`_stitch` sends."""
    return [
        ((ranks[a], accs[a]), (ranks[b - 1], accs[b - 1]), b - a) if a < b else None
        for a, b in zip(bounds, bounds[1:])
    ]


def _fold_sorted(
    group: Group, arr: Arrangement, keys: list, values: list | None,
    plus: Callable[[Any, Any], Any] | None, label: str,
) -> list[list[tuple[Any, Any]]]:
    """Fold ``values[f]`` (1 each when ``None``) per run of equal ranks,
    then stitch the runs that span servers.

    ``keys`` and ``values`` are flat (by the pass's flat position);
    ``plus=None`` is addition, which counts without a per-item loop when
    there are no values.  Emits ``(keys[f], total)`` once per key globally,
    on the first server of its sorted span.
    """
    heads, lengths, bounds = _runs(arr)
    plus = plus or add
    if values is None and plus is add:
        accs = lengths.tolist()
    else:
        order = arr.order.tolist()
        vals = list(map(values.__getitem__, order)) if values else [1] * len(order)
        firsts, sizes = heads.tolist(), lengths.tolist()
        accs = list(map(vals.__getitem__, firsts))  # a run of one is its value
        for r in np.flatnonzero(lengths > 1).tolist():
            accs[r] = reduce(plus, vals[firsts[r]:firsts[r] + sizes[r]])
    head_keys = list(map(keys.__getitem__, arr.order[heads].tolist()))
    owned = _stitch_runs(group, arr.ranks[heads].tolist(), accs, bounds, plus, label)
    return [list(zip(head_keys[lo:hi], accs[lo:hi])) for lo, hi in owned]


def _stitch(
    group: Group, summaries: list, plus: Callable[[Any, Any], Any], label: str
) -> list:
    """The one boundary stitch: :func:`_edge_runs` summaries to a
    coordinator and back in one round trip under ``{label}/stitch``.

    Replies per server ``(before, first, last)`` (``None`` without runs):
    the acc of its first run's key on the servers before it (``None`` where
    the key starts here), and the global totals of its first and last runs.
    """
    return coordinator_roundtrip(
        group, summaries, partial(_chain_totals, plus=plus), f"{label}/stitch"
    )


def _chain_totals(summaries: list, plus: Callable[[Any, Any], Any]) -> list:
    """Coordinator rule of :func:`_stitch`: chain runs of one rank across
    consecutive servers (skipping empty ones) into one span, folding its
    accs left to right.

    Only a server's first run can continue a chain, and only its last run
    can stay open: with several runs, the last key differs from the first.
    """
    replies: list[Any] = [None] * len(summaries)
    span: list[Any] | None = None  # [rank, acc, [(server, slot), ...]]

    def close() -> None:
        if span is not None:
            for srv, slot in span[2]:
                replies[srv][slot] = span[1]

    for i, s in enumerate(summaries):
        if s is None:
            continue
        (first_rank, first_acc), (last_rank, last_acc), n_runs = s
        replies[i] = [None, None, None]
        if span is not None and span[0] == first_rank:
            replies[i][0] = span[1]
            span[1] = plus(span[1], first_acc)
        else:
            close()
            span = [first_rank, first_acc, []]
        span[2].append((i, 1))
        if n_runs > 1:
            close()
            span = [last_rank, last_acc, []]
        span[2].append((i, 2))
    close()
    return replies


def _stitch_runs(
    group: Group, ranks: list, accs: list, bounds: list[int],
    plus: Callable[[Any, Any], Any], label: str,
) -> list[tuple[int, int]]:
    """Total the runs that span servers (:func:`_stitch`): a key's total
    lands on the first server of its span, which owns it.

    ``ranks`` and ``accs`` are per run (:func:`_runs`), ``bounds`` the
    servers' boundaries in them; each server's first and last ``accs`` are
    set to their global totals in place.  Returns each server's ``(lo,
    hi)`` range of the runs it owns.
    """
    replies = _stitch(group, _edge_runs(ranks, accs, bounds), plus, label)
    owned: list[tuple[int, int]] = []
    for lo, hi, reply in zip(bounds, bounds[1:], replies):
        if reply is not None:
            before, accs[lo], accs[hi - 1] = reply
            lo += before is not None  # owned upstream
        owned.append((lo, hi))
    return owned


def sum_by_key(
    group: Group,
    parts: Sequence[Iterable[tuple[Any, Any]]],
    plus: Callable[[Any, Any], Any] = lambda a, b: a + b,
    label: str = "sum_by_key",
) -> list[list[tuple[Any, Any]]]:
    """Aggregate ``(key, value)`` pairs per key with an associative operator.

    Returns per-server lists of ``(key, total)``; each key appears exactly
    once globally (on the first server of its sorted span).
    """
    pairs = [list(part) for part in parts]
    flat, arr = _sort(group, [list(map(_key0, part)) for part in pairs], label)
    values = list(map(itemgetter(1), chain.from_iterable(pairs)))
    return _fold_sorted(group, arr, flat, values, plus, label)


def fold_by_key(
    group: Group,
    rel: DistRelation,
    key_attrs: Sequence[str],
    plus: Callable[[Any, Any], Any] | None = None,
    label: str = "fold_by_key",
    values: Sequence[Sequence[Any]] | None = None,
) -> list[list[tuple[Any, Any]]]:
    """Per-key aggregation of a relation's rows, fused onto its sorted run.

    Equivalent to ``sum_by_key`` over ``(project_row(row, pos), value)``
    pairs — same outputs — but the PSRS pass is shared with, and paid once
    per execution for, every other primitive keyed the same way.

    Args:
        values: ``values[i][j]`` is row ``j`` of part ``i``'s value
            (aligned with ``rel.parts``); defaults to 1 per row (counting).
    """
    with prim_span(
        group.cluster, "FoldByKey", f"{rel.name}[{','.join(key_attrs)}] {label}"
    ):
        run = sorted_run(group, rel, key_attrs, label)
        flat_values = None if values is None else _flat(values)
        return _fold_sorted(group, run.arr, run.keys, flat_values, plus, label)


def count_by_key(
    group: Group,
    rel: DistRelation,
    key_attrs: Sequence[str],
    label: str = "count_by_key",
) -> list[list[tuple[Any, int]]]:
    """Global degree table of ``rel`` on ``key_attrs`` (one sort pass)."""
    return fold_by_key(group, rel, key_attrs, label=label)


def number_sorted(
    group: Group, arr: Arrangement, label: str, counted: np.ndarray | None = None
) -> list[int]:
    """Consecutive numbers 1, 2, ... per run of equal ranks, continued
    across server boundaries (one stitch round trip).

    Returns one number per item along ``arr.order``; items whose flag in
    ``counted`` (a boolean array along ``arr.order``) is false are skipped
    and get 0, so the numbering is consecutive within the flagged items.
    A server's first run continues from the ``before`` :func:`_stitch`
    replies.
    """
    heads, lengths, bounds = _runs(arr)
    flags = (
        np.ones(len(arr.order), np.int64) if counted is None
        else counted.astype(np.int64)
    )
    seen = np.cumsum(flags)  # counted items up to and including each position
    before = seen[heads] - flags[heads]  # ... and before each run
    nums = (seen - np.repeat(before, lengths)) * flags
    ends = (heads + lengths).tolist()

    # (rank, counted items) of each server's first and last run, from O(p)
    # slices: the most a run numbers is how many of its items count.
    summaries = [
        ((int(arr.ranks[lo]), int(nums[lo:ends[a]].max())),
         (int(arr.ranks[hi - 1]), int(nums[heads[b - 1]:hi].max())), b - a)
        if lo < hi else None
        for lo, hi, a, b in zip(arr.cuts, arr.cuts[1:], bounds, bounds[1:])
    ]
    replies = _stitch(group, summaries, add, label)
    for lo, a, reply in zip(arr.cuts, bounds, replies):
        if reply is not None and reply[0]:
            nums[lo:ends[a]] += reply[0] * flags[lo:ends[a]]
    return nums.tolist()


def multi_numbering(
    group: Group,
    parts: Sequence[Iterable[tuple[Any, Any]]],
    label: str = "multi_numbering",
) -> list[list[tuple[Any, Any, int]]]:
    """Assign consecutive numbers 1, 2, 3, ... per key to ``(key, payload)`` pairs.

    Returns per-server lists of ``(key, payload, number)``.
    """
    pairs = [list(part) for part in parts]
    _keys, arr = _sort(group, [list(map(_key0, part)) for part in pairs], label)
    flat, order = _flat(pairs), arr.order.tolist()
    nums = number_sorted(group, arr, label)
    return [
        [(*flat[f], n) for f, n in zip(order[lo:hi], nums[lo:hi])]
        for lo, hi in arr.slices()
    ]


def multi_search(
    group: Group,
    x_parts: Sequence[Iterable[tuple[Any, Any]]],
    y_parts: Sequence[Iterable[tuple[Any, Any]]],
    label: str = "multi_search",
) -> list[list[tuple[Any, Any, Any, Any]]]:
    """For each X element, find its predecessor in Y (largest key <= x's key).

    Args:
        x_parts / y_parts: Per-server ``(key, payload)`` pairs.

    Returns:
        Per-server lists of ``(x_key, x_payload, pred_key, pred_value)``;
        the predecessor fields are ``None`` when no Y key <= x exists.
        Ties (equal keys) resolve to the Y element, enabling equality tests.
    """
    xs = [list(part) for part in x_parts]
    ys = [list(part) for part in y_parts]
    keys = [list(map(_key0, part)) for pair in zip(ys, xs) for part in pair]
    fx, fy = _flat(xs), _flat(ys)
    x_at, pred, _same, x_cuts = _search(group, keys, fy, label)
    fy.append((None, None))  # pred -1: no predecessor
    pairs = zip(map(fx.__getitem__, x_at.tolist()), map(fy.__getitem__, pred.tolist()))
    found = [(*x, y[0], y[1]) for x, y in pairs]
    return [found[lo:hi] for lo, hi in zip(x_cuts, x_cuts[1:])]


def _search(
    group: Group, keys: Sequence[list], y_items: list, label: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Predecessor search over sort keys: one union sort, one carry trip.

    ``keys[2 * s]`` and ``keys[2 * s + 1]`` are source ``s``'s Y and X sort
    keys; ``y_items`` are the Y elements, flat.  Both sides are ranked
    together and sorted on ``2 * rank + tag``: at equal keys a Y (0)
    precedes an X (1).  Returns, over the X elements in global order, their
    flat positions, their predecessors' flat positions in Y (``-1`` when no
    Y key <= the X key exists), whether the predecessor's sort key equals
    theirs, and the ``p + 1`` server boundaries in these arrays.
    """
    arr = _sort_sides(group, keys, label)
    # Flat union position -> index among the Ys, or among the Xs.
    tag = np.repeat(np.arange(len(keys)) & 1, [len(k) for k in keys])
    n_x = np.cumsum(tag)
    index = np.where(tag, n_x - 1, np.arange(len(tag)) - n_x)[arr.order]
    is_y = (arr.ranks & 1) == 0

    # Each element's predecessor is the last Y at or before it in global
    # order.  One prefix maximum over every server's slice equals each
    # server's own scan continued by the coordinator's carry — every Y left
    # of a server's slice precedes all its elements — and the carry
    # round-trip is posted as the servers would send it.
    last = np.maximum.accumulate(np.where(is_y, np.arange(len(is_y)), -1))
    tails = np.append(last, -1)[[hi - 1 for hi in arr.cuts[1:]]]  # -1: none
    tail_ys = np.append(index, -1)[tails].tolist()
    trailing = [
        y_items[i] if t >= lo else None
        for lo, t, i in zip(arr.cuts, tails.tolist(), tail_ys)
    ]
    carry_left(group, trailing, f"{label}/carry")

    is_x = ~is_y
    x_last = last[is_x]
    pred = np.where(x_last >= 0, index[x_last], -1)
    same = (x_last >= 0) & (arr.ranks[x_last] >> 1 == arr.ranks[is_x] >> 1)
    x_cuts = np.concatenate(([0], np.cumsum(is_x)))[arr.cuts].tolist()
    return index[is_x], pred, same, x_cuts


def _sort_sides(
    group: Group, keys: Sequence[list], label: str, span: str | None = None
) -> Arrangement:
    """One PSRS pass over two sides' per-source sort keys, under a
    ``SampleSort`` span (named ``span``, else ``label``).

    ``keys[2 * s]`` and ``keys[2 * s + 1]`` are source ``s``'s side-0 and
    side-1 keys.  Both sides are ranked together and sorted on
    ``2 * rank + side``, so at equal keys side 0 comes first; flat
    positions run over each source's side 0, then its side 1.
    """
    sizes = [len(k) for k in keys]
    union = 2 * rank_keys(keys)[1] + np.repeat(np.arange(len(keys)) & 1, sizes)
    with prim_span(group.cluster, "SampleSort", span or label):
        return arrange(group, list(map(add, sizes[::2], sizes[1::2])), union, label)


def carry_left(group: Group, summaries: Sequence[Any], label: str) -> list[Any]:
    """One coordinator round trip in which each server receives the last
    non-``None`` summary sent from a server to its left (``None`` if none):
    the carry of every predecessor search, the coordinator rule beside
    :func:`_stitch`'s chain."""
    return coordinator_roundtrip(group, summaries, _carries, label)


def _carries(summaries_list: list[Any]) -> list[Any]:
    """Prefix carry: each server receives the last summary to its left."""
    replies: list[Any] = []
    run: Any = None
    for s in summaries_list:
        replies.append(run)
        if s is not None:
            run = s
    return replies


def search_rows(
    group: Group,
    rel: DistRelation,
    key_attrs: Sequence[str],
    table_parts: Sequence[Iterable[tuple[Any, Any]]],
    label: str,
    payloads: Sequence[Sequence[Any]] | None = None,
) -> list[list[tuple[Any, Any, Any, Any]]]:
    """Predecessor-search every row of ``rel`` against a ``(key, value)`` table.

    The relation side rides its (cached) sorted run; table entries are
    routed to the run's range partitions by the already-broadcast
    splitters, with the usual O(p) carry round-trip for partitions whose
    predecessor lives to their left.  Semantics match :func:`multi_search`
    (ties resolve to the table).

    Load precondition: the table must be *globally distinct per key* with
    keys (essentially) drawn from ``rel``'s own key values — the degree
    tables both callers look up (:func:`attach_degrees`' ``degree_parts``,
    the Section 5.1 light-degree product).
    Then each run partition receives at most its own row count in table
    entries and the pass stays linear-load.  For arbitrary duplicated
    filters (plain semi-joins on unreduced inputs) use :func:`multi_search`
    on the union, whose sampling balances the table side too.

    Args:
        payloads: Optional ``payloads[i][j]`` returned instead of the row
            itself (aligned with ``rel.parts``).

    Returns:
        Per-server ``(key, payload, pred_key, pred_value)`` quadruples in
        the run's arrangement.
    """
    with prim_span(
        group.cluster, "SearchRows", f"{rel.name}[{','.join(key_attrs)}] {label}"
    ):
        run = sorted_run(group, rel, key_attrs, label)
        arr, p = run.arr, group.size
        tables = [list(part) for part in table_parts]
        t_ranks, run_ranks = run.union_ranks([list(map(_key0, t)) for t in tables])

        # A table entry lands where a row with its key and the lowest uid
        # would: on the server numbered by how many splitter keys are < its
        # key.  In (key, uid) order those servers do not decrease, so each
        # receives one slice, charged by its per-destination counts.
        t_order = np.argsort(t_ranks, kind="stable")
        t_sorted = t_ranks[t_order]
        spl = np.searchsorted(t_sorted, run_ranks[arr.spl], "right").tolist()
        t_cuts = [0, *spl] + [len(t_ranks)] * (p - len(spl))
        if p > 1:
            counts = np.diff(t_cuts)
            t_src = np.repeat(np.arange(p), [len(t) for t in tables])[t_order]
            dest = np.repeat(np.arange(p), counts)
            received = (counts - np.bincount(dest[t_src == dest], minlength=p)).tolist()
            group.cluster.tally_members(group.members, received, f"{label}/table")

        entries = _flat(tables) + [(None, None)]  # index -1: no predecessor
        summaries = [
            entries[t_order[hi - 1]] if lo < hi else None
            for lo, hi in zip(t_cuts, t_cuts[1:])
        ]
        carry_left(group, summaries, f"{label}/carry")
        # A row's predecessor is the last entry at or below its rank.  Over
        # all entries at once that is its server's own, else the carry:
        # every entry left of a server's slice is <= all of its rows.
        pred = np.append(t_order, -1)[np.searchsorted(t_sorted, run_ranks, "right") - 1]
        pred = pred.tolist()

        keys, order = run.keys, arr.order.tolist()
        flat_payloads = _flat(rel.parts if payloads is None else payloads)
        return [
            [
                (keys[f], flat_payloads[f], entries[t][0], entries[t][1])
                for f, t in zip(order[lo:hi], pred[lo:hi])
            ]
            for lo, hi in arr.slices()
        ]


def semi_join(
    group: Group,
    rel: DistRelation,
    filter_rel: DistRelation,
    label: str = "semi_join",
) -> DistRelation:
    """``rel semijoin filter_rel`` on their shared attributes (linear load).

    Reduction to multi-search exactly as in paper Section 2: a row survives
    iff its predecessor among the filter keys equals its own key.  The
    union sort is kept (rather than :func:`search_rows`) because the filter
    side is arbitrary — duplicated, possibly disjoint from ``rel``'s keys —
    and only union sampling keeps it balanced; the substrate still supplies
    cached projected keys.
    """
    with prim_span(
        group.cluster, "SemiJoin", f"{rel.name} ⋉ {filter_rel.name} {label}"
    ):
        shared = tuple(sorted(set(rel.attrs) & set(filter_rel.attrs)))
        if not shared:
            # Degenerate: an empty filter kills everything, else no-op.
            if filter_rel.total_size() == 0:
                return rel.empty_like()
            return rel
        pos_r = rel.positions(shared)
        pos_f = filter_rel.positions(shared)
        x_at, _pred, kept = match_keys(
            group,
            projected_keys(rel, pos_r),
            projected_keys(filter_rel, pos_f),
            label,
        )
        rows = _flat(rel.parts)
        parts = [list(map(rows.__getitem__, x_at[a:b])) for a, b in zip(kept, kept[1:])]
        return DistRelation(rel.name, rel.attrs, parts, owned=True)


def match_keys(
    group: Group,
    x_keys: Sequence[list],
    y_keys: Sequence[list],
    label: str,
) -> tuple[list[int], list[int], list[int]]:
    """Equality match of per-server X keys against Y keys, by predecessor
    search (paper Section 2): an X element is kept iff its predecessor
    among the Y keys equals its own key.

    One :func:`_search` on the keys as :func:`multi_search` ranks them (Y
    before X per source); equal ranks are equal keys
    (:func:`~repro.mpc.substrate.rank_keys`).  :func:`semi_join` and the
    Section 6 fold both match through here.

    Returns:
        Over the kept X elements in global order: their flat positions in
        X, their matches' flat positions in Y, and the ``p + 1`` server
        boundaries in these lists.
    """
    with prim_span(group.cluster, "MatchKeys", label):
        keys = [part for pair in zip(y_keys, x_keys) for part in pair]
        x_at, pred, same, x_cuts = _search(group, keys, _flat(y_keys), label)
        kept = np.concatenate(([0], np.cumsum(same)))[x_cuts].tolist()
        return x_at[same].tolist(), pred[same].tolist(), kept


def attach_degrees(
    group: Group,
    rel: DistRelation,
    key_attrs: Sequence[str],
    label: str = "degrees",
    degree_parts: Sequence[Iterable[tuple[Any, int]]] | None = None,
) -> list[list[tuple[Row, int]]]:
    """Annotate each row with the global degree of its key in ``rel``.

    The sum-by-key + multi-search combination behind every heavy/light
    decision in the paper's algorithms, fused into one sort pass: counting
    runs and attaching the totals happen on the same sorted arrangement,
    with one :func:`_stitch` totalling keys that span servers.  If
    ``degree_parts`` is given (pre-computed ``(key, count)`` pairs, e.g.
    degrees in a *different* relation), it is looked up with
    :func:`search_rows` instead.

    Returns:
        Per-server ``(row, degree)`` pairs (degree 0 if the key is absent
        from the degree table).
    """
    with prim_span(
        group.cluster, "AttachDegrees",
        f"{rel.name}[{','.join(key_attrs)}] {label}",
    ):
        if degree_parts is not None:
            found = search_rows(
                group, rel, key_attrs, list(degree_parts), f"{label}/lookup"
            )
            return [
                [(payload, pv if pk == key else 0) for key, payload, pk, pv in part]
                for part in found
            ]

        arr = sorted_run(group, rel, key_attrs, f"{label}/count").arr
        # Local run lengths, with each server's edge runs totalled globally.
        heads, lengths, bounds = _runs(arr)
        degrees = lengths.tolist()
        _stitch_runs(group, arr.ranks[heads].tolist(), degrees, bounds, add, label)

        rows, order = _flat(rel.parts), arr.order.tolist()
        per_row = np.repeat(degrees, lengths).tolist()
        return [
            list(zip(map(rows.__getitem__, order[lo:hi]), per_row[lo:hi]))
            for lo, hi in arr.slices()
        ]


def arrange_sides(
    group: Group,
    r1: DistRelation,
    r2: DistRelation,
    key_attrs: Sequence[str],
    label: str,
) -> Arrangement:
    """One PSRS pass over ``r1 ⊎ r2`` on ``key_attrs``, each row flagged
    with its side: the :class:`Arrangement` on ``2 * key rank + side``,
    side 0 being ``r1``, of the rows in flat order (source ``s``'s ``r1``
    part, then its ``r2`` part).  Each key's ``r1`` rows precede its
    ``r2`` rows, each side in uid order.

    A row-backed side's keys are projected per server as one backend
    round (:func:`~repro.mpc.substrate.map_keys`); a column-backed side's
    are read off its key columns (:func:`~repro.mpc.substrate.projected_keys`),
    so no row tuple is built.  The arrangement belongs to neither
    relation, so it is paid on every call, like :func:`semi_join`'s union
    sort.
    """
    keys = [
        projected_keys(rel, pos) if rel.column_parts is not None
        else map_keys(group, rel, pos)
        for rel, pos in ((r1, r1.positions(key_attrs)), (r2, r2.positions(key_attrs)))
    ]
    return _sort_sides(
        group, [part for pair in zip(*keys) for part in pair], label,
        f"{r1.name} ⊎ {r2.name}[{','.join(key_attrs)}] {label}",
    )


def side_degrees(
    group: Group, arr: Arrangement, label: str
) -> list[list[tuple[int, int, int]]]:
    """Both sides' degree tables from one two-sided arrangement
    (:func:`arrange_sides`), in one stitch round trip.

    Returns per server ``(key rank, c1, c2)``: how many side-0 and side-1
    items carry the key (``arr.ranks >> 1``), once per key globally, on
    the first server of its sorted span.
    """
    heads, lengths, bounds = _runs(arr, arr.ranks >> 1)
    c2 = np.add.reduceat(arr.ranks & 1, heads) if len(heads) else lengths
    accs = list(zip((lengths - c2).tolist(), c2.tolist()))
    key_ranks = (arr.ranks[heads] >> 1).tolist()
    owned = _stitch_runs(group, key_ranks, accs, bounds, _add_pairs, label)
    return [
        [(k, c1, c2) for k, (c1, c2) in zip(key_ranks[lo:hi], accs[lo:hi])]
        for lo, hi in owned
    ]


def _add_pairs(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] + b[0], a[1] + b[1]


def global_sum(
    group: Group,
    values: Sequence[int | float],
    label: str = "global_sum",
) -> int | float:
    """Sum one value per server and make the total known everywhere.

    O(p) units at the coordinator plus a broadcast of one unit per server.
    """
    if len(values) != group.size:
        raise MPCError("need exactly one value per local server")
    with prim_span(group.cluster, "GlobalSum", label):
        coord = coordinator_for(group, label)
        gathered = group.gather([[v] for v in values], f"{label}/gather", dst=coord)
        total = sum(gathered)
        group.broadcast([total], f"{label}/bcast", src=coord)
        return total
