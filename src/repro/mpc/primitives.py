"""The paper's Section 2 MPC primitives, all with linear load, O(1) rounds.

Implemented sort-first (the [14, 18] recipe): the regular-sampling sort
kernel :func:`repro.mpc.substrate.arrange` range-partitions items so that
equal keys are contiguous *across* servers, then per-key logic scans the
:class:`~repro.mpc.substrate.Arrangement` — int64 ranks and flat item
positions in global order, one contiguous slice per server — as arrays,
fetching items by flat position only to emit, with an O(p) boundary
round-trip through a coordinator to stitch runs that span server
boundaries.  Runs of equal keys are runs of equal ranks.  The coordinator
traffic is O(p) units per primitive plus at most ``n/p + p`` samples per
sort, never more than the data share the sort balances; partitions stay
within ``n/p + max(n/p, p^2)`` (DESIGN.md section 2; the paper assumes
``IN >= p^{1+eps}`` and uses aggregation trees instead — same interface,
same asymptotics for our experiment range).

Two layers of primitives, one kernel underneath:

*Generic* (item-level, as in the paper's exposition; keys ranked per
call, :func:`repro.mpc.substrate.sort_keys` deciding raw or encoded):

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
* :func:`number_rows` — per-key numbering of a relation's rows.
* :func:`semi_join` — ``R1 semijoin R2`` via predecessor search.
* :func:`attach_degrees` — annotate rows with their key's global degree
  (the sum-by-key + multi-search combo used by every heavy/light split,
  fused into a single sort pass plus one boundary round-trip).
* :func:`distinct_keys` — globally distinct key projections.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import add, itemgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.data.relation import Row
from repro.errors import MPCError
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.plan.trace import prim_span
from repro.mpc.substrate import (
    Arrangement,
    arrange,
    coordinator_for,
    column_tags,
    orderable,
    projected_keys,
    rank_keys,
    sort_keys,
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
    "number_rows",
    "semi_join",
    "attach_degrees",
    "distinct_keys",
    "global_sum",
]

_key0 = itemgetter(0)


def _coordinator_roundtrip(
    group: Group,
    summaries: Sequence[Any],
    compute: Callable[[list[Any]], list[Any]],
    label: str,
) -> list[Any]:
    """Send one summary per server to a coordinator, compute, reply one each.

    The O(p)-unit coordinator step shared by all boundary-stitching logic.
    """
    coord = coordinator_for(group, label)
    outboxes = [[(coord, (i, s))] for i, s in enumerate(summaries)]
    inboxes = group.exchange(outboxes, f"{label}/gather")
    received = sorted(inboxes[coord], key=_key0)
    replies = compute([s for _, s in received])
    if len(replies) != group.size:
        raise MPCError("coordinator must reply to every server")
    outboxes2: list[list[tuple[int, Any]]] = [[] for _ in range(group.size)]
    outboxes2[coord] = [(i, r) for i, r in enumerate(replies)]
    inboxes2 = group.exchange(outboxes2, f"{label}/reply")
    return [box[0] for box in inboxes2]


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

def _runs(arr: Arrangement) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Runs of equal ranks as each server sees them: the positions in
    ``arr.order`` where one starts (a rank change, or a server's first
    item), their lengths, and the ``p + 1`` server boundaries in these."""
    ranks, n = arr.ranks, len(arr.order)
    start = np.ones(n, bool)
    np.not_equal(ranks[1:], ranks[:-1], out=start[1:])
    start[[c for c in arr.cuts[:-1] if c < n]] = True
    heads = np.flatnonzero(start)
    lengths = np.diff(np.append(heads, n))
    return heads, lengths, np.searchsorted(heads, arr.cuts).tolist()


def _edge_runs(ranks: list, accs: list, bounds: list[int]) -> list:
    """Per server, ``(rank, acc)`` of its first and last run and how many
    runs it has (``None`` without any): what boundary stitching sends."""
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

    # Boundary stitching: only each server's first and last run can span.
    summaries = _edge_runs(arr.ranks[heads].tolist(), accs, bounds)
    replies = _coordinator_roundtrip(
        group, summaries, _stitch_fn(plus), f"{label}/stitch"
    )
    out_parts: list[list[tuple[Any, Any]]] = []
    for lo, hi, (first, last) in zip(bounds, bounds[1:], replies):
        if hi - lo > 1 and last is not None:
            if last[0] == "emit":
                accs[hi - 1] = last[1]
            else:
                hi -= 1
        if first is not None:
            if first[0] == "emit":
                accs[lo] = first[1]
            else:  # drop: owned upstream
                lo += 1
        out_parts.append(list(zip(head_keys[lo:hi], accs[lo:hi])))
    return out_parts


def _stitch_fn(plus: Callable[[Any, Any], Any]) -> Callable[[list[Any]], list[Any]]:
    """Coordinator logic deciding what happens to boundary runs.

    Reply per server: ``(first_action, last_action)`` where an action is
    ``None`` (no such run), ``("emit", total)`` or ``("drop",)``.  For a
    single-run server the two actions collapse into ``first_action``.
    """

    def stitch(summaries_list: list[Any]) -> list[Any]:
        replies: list[list[Any]] = [[None, None] for _ in summaries_list]
        chain: tuple[int, int, Any, Any] | None = None  # (server, slot, rank, acc)

        def flush() -> None:
            nonlocal chain
            if chain is not None:
                srv, slot, _rank, acc = chain
                replies[srv][slot] = ("emit", acc)
                chain = None

        for i, s in enumerate(summaries_list):
            if s is None:
                continue
            (first_ok, first_sum), (last_ok, last_sum), n_runs = s
            if chain is not None and chain[2] == first_ok:
                chain = (chain[0], chain[1], chain[2], plus(chain[3], first_sum))
                replies[i][0] = ("drop",)
            else:
                flush()
                chain = (i, 0, first_ok, first_sum)
            if n_runs > 1:
                # The last run starts a fresh chain: with several runs the
                # last key necessarily differs from the first.
                flush()
                chain = (i, 1, last_ok, last_sum)
        flush()
        return [tuple(r) for r in replies]

    return stitch


def sum_by_key(
    group: Group,
    parts: Sequence[Iterable[tuple[Any, Any]]],
    plus: Callable[[Any, Any], Any] = lambda a, b: a + b,
    label: str = "sum_by_key",
    tags: tuple[int, ...] | None = None,
) -> list[list[tuple[Any, Any]]]:
    """Aggregate ``(key, value)`` pairs per key with an associative operator.

    Returns per-server lists of ``(key, total)``; each key appears exactly
    once globally (on the first server of its sorted span).  ``tags``, the
    keys' :func:`~repro.mpc.substrate.column_tags`, lets them be ranked raw
    without a scan.
    """
    pairs = [list(part) for part in parts]
    keys = [list(map(_key0, part)) for part in pairs]
    _sk, arr = _sort(group, sort_keys(keys, tags), label)
    values = list(map(itemgetter(1), chain.from_iterable(pairs)))
    return _fold_sorted(group, arr, _flat(keys), values, plus, label)


def fold_by_key(
    group: Group,
    rel: DistRelation,
    key_attrs: Sequence[str],
    plus: Callable[[Any, Any], Any] | None = None,
    label: str = "fold_by_key",
    values: Sequence[Sequence[Any]] | None = None,
    scalar: bool = False,
) -> list[list[tuple[Any, Any]]]:
    """Per-key aggregation of a relation's rows, fused onto its sorted run.

    Equivalent to ``sum_by_key`` over ``(project_row(row, pos), value)``
    pairs — same outputs — but the PSRS pass is shared with, and paid once
    per execution for, every other primitive keyed the same way.

    Args:
        values: ``values[i][j]`` is row ``j`` of part ``i``'s value
            (aligned with ``rel.parts``); defaults to 1 per row (counting).
        scalar: Key rows by the bare column value instead of a 1-tuple.
    """
    with prim_span(
        group.cluster, "FoldByKey", f"{rel.name}[{','.join(key_attrs)}] {label}"
    ):
        run = sorted_run(group, rel, key_attrs, label, scalar=scalar)
        flat_values = None if values is None else _flat(values)
        return _fold_sorted(group, run.arr, run.keys, flat_values, plus, label)


def count_by_key(
    group: Group,
    rel: DistRelation,
    key_attrs: Sequence[str],
    label: str = "count_by_key",
    scalar: bool = False,
) -> list[list[tuple[Any, int]]]:
    """Global degree table of ``rel`` on ``key_attrs`` (one sort pass)."""
    return fold_by_key(group, rel, key_attrs, label=label, scalar=scalar)


def _number_sorted(
    group: Group, arr: Arrangement, label: str, counted: np.ndarray | None = None
) -> list[int]:
    """Consecutive numbers 1, 2, ... per run of equal ranks, continued
    across server boundaries.

    Returns one number per item along ``arr.order``; items whose flag in
    ``counted`` (a flat boolean array) is false are skipped and get 0.
    """
    heads, lengths, bounds = _runs(arr)
    flags = (
        np.ones(len(arr.order), np.int64) if counted is None
        else counted[arr.order].astype(np.int64)
    )
    seen = np.cumsum(flags)  # counted items up to and including each position
    before = seen[heads] - flags[heads]  # ... and before each run
    nums = (seen - np.repeat(before, lengths)) * flags
    ends = (heads + lengths).tolist()

    # (first rank, counted in the first run, last rank, counted in the last)
    summaries = [
        (int(arr.ranks[lo]), int(nums[lo:ends[a]].max()),
         int(arr.ranks[hi - 1]), int(nums[heads[b - 1]:hi].max()))
        if lo < hi else None
        for lo, hi, a, b in zip(arr.cuts, arr.cuts[1:], bounds, bounds[1:])
    ]
    replies = _coordinator_roundtrip(
        group, summaries, _numbering_offsets, f"{label}/stitch"
    )
    # Only a server's very first run continues an upstream span.
    for lo, a, offset in zip(arr.cuts, bounds, replies):
        if offset:
            nums[lo:ends[a]] += offset * flags[lo:ends[a]]
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
    keys = sort_keys([list(map(_key0, part)) for part in pairs], None)
    _sk, arr = _sort(group, keys, label)
    flat, order = _flat(pairs), arr.order.tolist()
    nums = _number_sorted(group, arr, label)
    return [
        [(*flat[f], n) for f, n in zip(order[lo:hi], nums[lo:hi])]
        for lo, hi in arr.slices()
    ]


def _numbering_offsets(summaries_list: list[Any]) -> list[Any]:
    """Per-server offset for its first run (count of that key upstream)."""
    replies = [0] * len(summaries_list)
    acc_key: Any = None
    acc = 0
    for i, s in enumerate(summaries_list):
        if s is None:
            continue
        first_ok, first_count, last_ok, last_count = s
        if acc_key is not None and acc_key == first_ok:
            replies[i] = acc
        else:
            replies[i] = 0
        if first_ok == last_ok:
            base = replies[i]
            acc = base + first_count
        else:
            acc = last_count
        acc_key = last_ok
    return replies


def number_rows(
    group: Group,
    rel: DistRelation,
    key_attrs: Sequence[str],
    label: str = "numbering",
    only_keys: Any | None = None,
    scalar: bool = False,
) -> list[list[tuple[Any, Row, int]]]:
    """Consecutive numbers 1, 2, ... per key over a relation's rows.

    Fused onto the relation's (cached) sorted run; when ``only_keys`` is
    given (any container supporting ``in``), only rows whose key is a
    member are numbered and returned — the numbering is consecutive within
    the restricted set, as the heavy-rectangle chunking of
    :func:`repro.core.binary_join.binary_join` requires.
    """
    with prim_span(
        group.cluster, "NumberRows", f"{rel.name}[{','.join(key_attrs)}] {label}"
    ):
        run = sorted_run(group, rel, key_attrs, label, scalar=scalar)
        keys, rows, order = run.keys, _flat(rel.parts), run.arr.order.tolist()
        counted = None
        if only_keys is not None:
            counted = np.fromiter(map(only_keys.__contains__, keys), bool, len(keys))
        nums = _number_sorted(group, run.arr, label, counted)
        return [
            [(keys[f], rows[f], n) for f, n in zip(order[lo:hi], nums[lo:hi]) if n]
            for lo, hi in run.arr.slices()
        ]


def multi_search(
    group: Group,
    x_parts: Sequence[Iterable[tuple[Any, Any]]],
    y_parts: Sequence[Iterable[tuple[Any, Any]]],
    label: str = "multi_search",
    tags: tuple[int, ...] | None = None,
) -> list[list[tuple[Any, Any, Any, Any]]]:
    """For each X element, find its predecessor in Y (largest key <= x's key).

    Args:
        x_parts / y_parts: Per-server ``(key, payload)`` pairs.
        tags: The :func:`~repro.mpc.substrate.column_tags` that X and Y
            keys share, when known: the keys are then ranked raw without a
            scan.

    Returns:
        Per-server lists of ``(x_key, x_payload, pred_key, pred_value)``;
        the predecessor fields are ``None`` when no Y key <= x exists.
        Ties (equal keys) resolve to the Y element, enabling equality tests.
    """
    xs = [list(part) for part in x_parts]
    ys = [list(part) for part in y_parts]
    keys = [list(map(_key0, part)) for pair in zip(ys, xs) for part in pair]
    fx, fy = _flat(xs), _flat(ys)
    x_at, pred, _same, x_cuts = _search(group, sort_keys(keys, tags), fy, label)
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
    sizes = [len(k) for k in keys]
    union = 2 * rank_keys(keys)[1] + np.repeat(np.arange(len(keys)) & 1, sizes)
    with prim_span(group.cluster, "SampleSort", label):
        arr = arrange(group, list(map(add, sizes[::2], sizes[1::2])), union, label)
    # Flat union position -> index among the Ys, or among the Xs.
    tag = union & 1
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
    _coordinator_roundtrip(group, trailing, _carries, f"{label}/carry")

    is_x = ~is_y
    x_last = last[is_x]
    pred = np.where(x_last >= 0, index[x_last], -1)
    same = (x_last >= 0) & (arr.ranks[x_last] >> 1 == arr.ranks[is_x] >> 1)
    x_cuts = np.concatenate(([0], np.cumsum(is_x)))[arr.cuts].tolist()
    return index[is_x], pred, same, x_cuts


def _carries(summaries_list: list[Any]) -> list[Any]:
    """Prefix carry: each server receives the last Y element to its left."""
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
    scalar: bool = False,
) -> list[list[tuple[Any, Any, Any, Any]]]:
    """Predecessor-search every row of ``rel`` against a ``(key, value)`` table.

    The relation side rides its (cached) sorted run; table entries are
    routed to the run's range partitions by the already-broadcast
    splitters, with the usual O(p) carry round-trip for partitions whose
    predecessor lives to their left.  Semantics match :func:`multi_search`
    (ties resolve to the table).

    Load precondition: the table must be *globally distinct per key* with
    keys (essentially) drawn from ``rel``'s own key values — the degree
    table / packing-assignment / reduced-separator pattern of every caller.
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
        run = sorted_run(group, rel, key_attrs, label, scalar=scalar)
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
        _coordinator_roundtrip(group, summaries, _carries, f"{label}/carry")
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
    cached projected keys and the two sides' shared column tags.
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
        rel_keys = projected_keys(rel, pos_r)
        filter_keys = projected_keys(filter_rel, pos_f)
        keys = [part for pair in zip(filter_keys, rel_keys) for part in pair]
        skeys = sort_keys(keys, column_tags((rel, pos_r), (filter_rel, pos_f)))
        fy = _flat(filter_keys)
        x_at, pred, same, x_cuts = _search(group, skeys, fy, label)
        if skeys is not keys:
            # Encodings tell ``1`` from ``True``; the predecessor test is
            # value equality, as the raw keys' was.
            fx = _flat(rel_keys)
            for i in np.flatnonzero((pred >= 0) & ~same).tolist():
                same[i] = fy[pred[i]] == fx[x_at[i]]
        kept = np.concatenate(([0], np.cumsum(same)))[x_cuts].tolist()
        rows, x_at = _flat(rel.parts), x_at[same].tolist()
        parts = [list(map(rows.__getitem__, x_at[a:b])) for a, b in zip(kept, kept[1:])]
        return DistRelation(rel.name, rel.attrs, parts, owned=True)


def attach_degrees(
    group: Group,
    rel: DistRelation,
    key_attrs: Sequence[str],
    label: str = "degrees",
    degree_parts: Sequence[Iterable[tuple[Any, int]]] | None = None,
    scalar: bool = False,
) -> list[list[tuple[Row, int]]]:
    """Annotate each row with the global degree of its key in ``rel``.

    The sum-by-key + multi-search combination behind every heavy/light
    decision in the paper's algorithms, fused into one sort pass: counting
    runs and attaching the totals happen on the same sorted arrangement,
    with a single O(p) boundary round-trip resolving keys that span
    servers.  If ``degree_parts`` is given (pre-computed ``(key, count)``
    pairs, e.g. degrees in a *different* relation), it is looked up with
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
                group, rel, key_attrs, list(degree_parts), f"{label}/lookup",
                scalar=scalar,
            )
            return [
                [(payload, pv if pk == key else 0) for key, payload, pk, pv in part]
                for part in found
            ]

        run = sorted_run(group, rel, key_attrs, f"{label}/count", scalar=scalar)
        arr = run.arr

        # Local run-length counts per server, as (rank, count) summaries.
        heads, lengths, bounds = _runs(arr)
        degrees = lengths.tolist()
        replies = _coordinator_roundtrip(
            group, _edge_runs(arr.ranks[heads].tolist(), degrees, bounds),
            _span_totals, f"{label}/stitch",
        )
        for a, b, (first, last) in zip(bounds, bounds[1:], replies):
            if last is not None:
                degrees[b - 1] = last
            if first is not None:
                degrees[a] = first

        rows, order = _flat(rel.parts), arr.order.tolist()
        per_row = np.repeat(degrees, lengths).tolist()
        return [
            list(zip(map(rows.__getitem__, order[lo:hi]), per_row[lo:hi]))
            for lo, hi in arr.slices()
        ]


def _span_totals(summaries_list: list[Any]) -> list[Any]:
    """Global totals for each server's first and last (possibly spanning) run."""
    replies: list[list[Any]] = [[None, None] for _ in summaries_list]
    chain: list[Any] | None = None  # [rank, acc, [(server, slot), ...]]

    def flush() -> None:
        nonlocal chain
        if chain is not None:
            for srv, slot in chain[2]:
                replies[srv][slot] = chain[1]
            chain = None

    for i, s in enumerate(summaries_list):
        if s is None:
            continue
        (first_ok, first_cnt), (last_ok, last_cnt), n_runs = s
        if chain is not None and chain[0] == first_ok:
            chain[1] += first_cnt
            chain[2].append((i, 0))
        else:
            flush()
            chain = [first_ok, first_cnt, [(i, 0)]]
        if n_runs > 1:
            flush()
            chain = [last_ok, last_cnt, [(i, 1)]]
        else:
            chain[2].append((i, 1))
    flush()
    return [tuple(r) for r in replies]


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
    coord = coordinator_for(group, label)
    gathered = group.gather([[v] for v in values], f"{label}/gather", dst=coord)
    total = sum(gathered)
    group.broadcast([total], f"{label}/bcast", src=coord)
    return total


def distinct_keys(
    group: Group,
    rel: DistRelation,
    key_attrs: Sequence[str],
    label: str = "distinct",
) -> list[list[Any]]:
    """Globally distinct projections of ``rel`` onto ``key_attrs``."""
    counted = count_by_key(group, rel, key_attrs, label=label)
    return [[key for key, _c in part] for part in counted]
