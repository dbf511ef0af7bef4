"""The paper's Section 2 MPC primitives, all with linear load, O(1) rounds.

Implemented sort-first (the [14, 18] recipe): the regular-sampling sort
kernel :func:`repro.mpc.substrate.psrs` range-partitions items so that
equal keys are contiguous *across* servers, then per-key logic scans each
server's sorted index arrays — fetching ``parts[src][j]`` only to emit —
with an O(p) boundary round-trip through a coordinator to stitch runs
that span server boundaries.  The coordinator traffic is O(p) units per
primitive plus at most ``n/p + p`` samples per sort, never more than the
data share the sort balances; partitions stay within
``n/p + max(n/p, p^2)`` (DESIGN.md section 2; the paper assumes
``IN >= p^{1+eps}`` and uses aggregation trees instead — same interface,
same asymptotics for our experiment range).

Two layers of primitives, one kernel underneath:

*Generic* (item-level, as in the paper's exposition):

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

from bisect import bisect_right
from itertools import groupby, islice
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from repro.data.relation import Row
from repro.errors import MPCError
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.plan.trace import prim_span
from repro.mpc.substrate import (
    TagStamp,
    coordinator_for,
    index_sort,
    merge_slices,
    orderable,
    pair_key_encoder,
    projected_keys,
    psrs,
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


def _sort(group: Group, keys: Sequence[list], label: str) -> list[tuple]:
    """A generic primitive's PSRS pass, under its ``SampleSort`` span."""
    with prim_span(group.cluster, "SampleSort", label):
        return psrs(group, keys, label)[0]


def sample_sort(
    group: Group,
    parts: Sequence[Iterable[Any]],
    key_fn: Callable[[Any], Any],
    label: str,
    encoder: Callable[[Any], tuple] | None = None,
) -> list[list[tuple[tuple, tuple[int, int], Any]]]:
    """Globally sort items by ``(key, origin-uid)`` via regular sampling.

    Returns per-server lists of ``(orderable_key, uid, item)`` triples in
    global sorted order (server 0's part precedes server 1's, etc.).  Equal
    keys are tie-broken by uid, so heavy keys spread across servers — the
    property that makes the downstream primitives skew-proof.

    ``encoder`` maps ``key_fn``'s output to its orderable form; it must
    agree with :func:`orderable` bit-for-bit (the substrate's specialized
    encoders do) and exists purely to skip the recursive dispatch.

    Load: ~``n/p`` per server (PSRS guarantees < 2n/p) plus O(p) sampling
    traffic at the coordinator.
    """
    enc = encoder or orderable
    items = [list(part) for part in parts]
    keys = [[enc(key_fn(item)) for item in part] for part in items]
    return [
        [(k, (s, j), items[s][j]) for k, s, j in zip(ks, srcs, js)]
        for ks, srcs, js in _sort(group, keys, label)
    ]


# ----------------------------------------------------------------------
# Per-key folds over sorted index arrays, stitched across server boundaries
# ----------------------------------------------------------------------

def _fold_sorted(
    group: Group,
    routed: Sequence[tuple[list, list[int], list[int]]],
    keys: Sequence[list],
    values: Sequence[Sequence[Any]] | None,
    plus: Callable[[Any, Any], Any],
    label: str,
) -> list[list[tuple[Any, Any]]]:
    """Fold ``values[src][j]`` (1 each when ``None``) per run of equal
    sort keys, then stitch the runs that span servers.

    Emits ``(keys[src][j], total)`` once per key globally, on the first
    server of its sorted span.
    """
    folded: list[tuple[list, list, list]] = []
    for ks, srcs, js in routed:
        run_keys, heads, accs = [], [], []
        prev: Any = _SENTINEL
        for k, s, j in zip(ks, srcs, js):
            v = 1 if values is None else values[s][j]
            if k == prev:
                accs[-1] = plus(accs[-1], v)
            else:
                run_keys.append(k)
                heads.append(keys[s][j])
                accs.append(v)
                prev = k
        folded.append((run_keys, heads, accs))

    # Boundary stitching: only each server's first and last run can span.
    summaries = [
        ((rk[0], accs[0]), (rk[-1], accs[-1]), len(rk)) if rk else None
        for rk, _heads, accs in folded
    ]
    replies = _coordinator_roundtrip(
        group, summaries, _stitch_fn(plus), f"{label}/stitch"
    )
    out_parts: list[list[tuple[Any, Any]]] = []
    for (_rk, heads, accs), (first, last) in zip(folded, replies):
        lo, hi = 0, len(accs)
        if hi > 1 and last is not None:
            if last[0] == "emit":
                accs[-1] = last[1]
            else:
                hi -= 1
        if first is not None:
            if first[0] == "emit":
                accs[0] = first[1]
            else:  # drop: owned upstream
                lo = 1
        out_parts.append(list(zip(heads[lo:hi], accs[lo:hi])))
    return out_parts


def _stitch_fn(plus: Callable[[Any, Any], Any]) -> Callable[[list[Any]], list[Any]]:
    """Coordinator logic deciding what happens to boundary runs.

    Reply per server: ``(first_action, last_action)`` where an action is
    ``None`` (no such run), ``("emit", total)`` or ``("drop",)``.  For a
    single-run server the two actions collapse into ``first_action``.
    """

    def stitch(summaries_list: list[Any]) -> list[Any]:
        replies: list[list[Any]] = [[None, None] for _ in summaries_list]
        chain: tuple[int, int, tuple, Any] | None = None  # (server, slot, okey, acc)

        def flush() -> None:
            nonlocal chain
            if chain is not None:
                srv, slot, _okey, acc = chain
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
    encoder: Callable[[Any], tuple] | None = None,
) -> list[list[tuple[Any, Any]]]:
    """Aggregate ``(key, value)`` pairs per key with an associative operator.

    Returns per-server lists of ``(key, total)``; each key appears exactly
    once globally (on the first server of its sorted span).
    """
    pairs = [list(part) for part in parts]
    keys = [[kv[0] for kv in part] for part in pairs]
    values = [[kv[1] for kv in part] for part in pairs]
    # Tag-stamped keys order like their encodings: sort them as they are.
    skeys = keys if isinstance(encoder, TagStamp) else [
        list(map(encoder or orderable, k)) for k in keys
    ]
    return _fold_sorted(group, _sort(group, skeys, label), keys, values, plus, label)


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
        add = plus if plus is not None else lambda a, b: a + b
        return _fold_sorted(group, run.parts, run.keys, values, add, label)


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
    group: Group,
    routed: Sequence[tuple[list, list[int], list[int]]],
    label: str,
    counted: Sequence[Sequence[bool]] | None = None,
) -> list[list[int]]:
    """Consecutive numbers 1, 2, ... per run of equal sort keys, continued
    across server boundaries.

    Returns one number per item, aligned with ``routed``'s arrays; items
    whose ``counted[src][j]`` is false are skipped and get 0.
    """
    numbered, first_lens, summaries = [], [], []
    for ks, srcs, js in routed:
        nums: list[int] = []
        pos = 0
        first_len = first_count = -1  # the first run's length / counted items
        prev: Any = _SENTINEL
        for i, k in enumerate(ks):
            if k != prev:
                if first_len < 0 and i:
                    first_len, first_count = i, pos
                pos = 0
                prev = k
            if counted is None or counted[srcs[i]][js[i]]:
                pos += 1
                nums.append(pos)
            else:
                nums.append(0)
        if first_len < 0:
            first_len, first_count = len(ks), pos
        numbered.append(nums)
        first_lens.append(first_len)
        summaries.append((ks[0], first_count, ks[-1], pos) if ks else None)

    replies = _coordinator_roundtrip(
        group, summaries, _numbering_offsets, f"{label}/stitch"
    )
    # Only a part's very first run continues an upstream span.
    for nums, first_len, offset in zip(numbered, first_lens, replies):
        if offset:
            nums[:first_len] = [n and n + offset for n in nums[:first_len]]
    return numbered


def multi_numbering(
    group: Group,
    parts: Sequence[Iterable[tuple[Any, Any]]],
    label: str = "multi_numbering",
) -> list[list[tuple[Any, Any, int]]]:
    """Assign consecutive numbers 1, 2, 3, ... per key to ``(key, payload)`` pairs.

    Returns per-server lists of ``(key, payload, number)``.
    """
    pairs = [list(part) for part in parts]
    routed = _sort(
        group, [[orderable(kv[0]) for kv in part] for part in pairs], label
    )
    return [
        [(*pairs[s][j], n) for s, j, n in zip(srcs, js, nums)]
        for (_ks, srcs, js), nums in zip(
            routed, _number_sorted(group, routed, label)
        )
    ]


def _numbering_offsets(summaries_list: list[Any]) -> list[Any]:
    """Per-server offset for its first run (count of that key upstream)."""
    replies = [0] * len(summaries_list)
    acc_key: tuple | None = None
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
        keys, rows = run.keys, rel.parts
        counted = None
        if only_keys is not None:
            counted = [list(map(only_keys.__contains__, part)) for part in keys]
        return [
            [(keys[s][j], rows[s][j], n) for s, j, n in zip(srcs, js, nums) if n]
            for (_ks, srcs, js), nums in zip(
                run.parts, _number_sorted(group, run.parts, label, counted)
            )
        ]


_SENTINEL = object()


def multi_search(
    group: Group,
    x_parts: Sequence[Iterable[tuple[Any, Any]]],
    y_parts: Sequence[Iterable[tuple[Any, Any]]],
    label: str = "multi_search",
    encoder: Callable[[Any], tuple] | None = None,
) -> list[list[tuple[Any, Any, Any, Any]]]:
    """For each X element, find its predecessor in Y (largest key <= x's key).

    Args:
        x_parts / y_parts: Per-server ``(key, payload)`` pairs.
        encoder: Optional orderable-equivalent encoder for the *keys*
            (tags are handled internally).

    Returns:
        Per-server lists of ``(x_key, x_payload, pred_key, pred_payload)``;
        the predecessor fields are ``None`` when no Y key <= x exists.
        Ties (equal keys) resolve to the Y element, enabling equality tests.
    """
    xs = [list(part) for part in x_parts]
    ys = [list(part) for part in y_parts]
    found = _search(
        group,
        [[kv[0] for kv in part] for part in xs],
        [[kv[0] for kv in part] for part in ys],
        ys, label, encoder,
    )
    return [
        [
            (*xs[s][j], None, None) if pred is None else (*xs[s][j], pred[0], pred[1])
            for s, j, pred in zip(srcs, js, preds)
        ]
        for srcs, js, preds in found
    ]


# Tag suffixes of the union sort: at equal keys a Y (0) precedes an X (1).
# Raw tuple keys take the flat suffix; encodings the orderable((key, tag)) shape.
_Y, _X = (0,), (1,)
_ENC_Y, _ENC_X = (2, 0), (2, 1)


def _search(
    group: Group,
    x_keys: Sequence[list],
    y_keys: Sequence[list],
    y_items: Sequence[list],
    label: str,
    encoder: Callable[[Any], tuple] | None,
) -> list[tuple[list[int], list[int], list[Any]]]:
    """Predecessor search over key lists: one union sort, one carry trip.

    Returns, per server, parallel arrays over the X elements it holds in
    sorted order: origin ``(src, j)`` into ``x_keys`` and the predecessor
    ``y_items[src'][j']`` (``None`` when no Y key <= the X key exists).
    """
    if isinstance(encoder, TagStamp):
        union = [
            [k + _Y for k in yk] + [k + _X for k in xk]
            for xk, yk in zip(x_keys, y_keys)
        ]
    else:
        enc = encoder or orderable
        union = [
            [(5, (enc(k), _ENC_Y)) for k in yk] + [(5, (enc(k), _ENC_X)) for k in xk]
            for xk, yk in zip(x_keys, y_keys)
        ]
    n_y = [len(yk) for yk in y_keys]

    found: list[tuple[list[int], list[int], list[Any]]] = []
    leading: list[int] = []  # X elements ahead of the server's first Y
    trailing: list[Any] = []  # the server's last Y element
    for _ks, srcs, js in _sort(group, union, label):
        x_srcs, x_js, preds = [], [], []
        carry = None
        lead = -1
        for s, j in zip(srcs, js):
            if j < n_y[s]:
                if lead < 0:
                    lead = len(preds)
                carry = y_items[s][j]
            else:
                x_srcs.append(s)
                x_js.append(j - n_y[s])
                preds.append(carry)
        found.append((x_srcs, x_js, preds))
        leading.append(len(preds) if lead < 0 else lead)
        trailing.append(carry)

    incoming = _coordinator_roundtrip(group, trailing, _carries, f"{label}/carry")
    for (_s, _j, preds), lead, carry_in in zip(found, leading, incoming):
        if carry_in is not None:
            preds[:lead] = [carry_in] * lead
    return found


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
    splitters and merged locally, with the usual O(p) carry round-trip for
    partitions whose predecessor lives to their left.  Semantics match
    :func:`multi_search` (ties resolve to the table).

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
        p = group.size
        tables = [list(part) for part in table_parts]
        table_keys, splitters, run_keys = run.table_keys(
            [[kv[0] for kv in part] for part in tables]
        )

        # A table entry lands where a row with its key and the lowest uid
        # would: on the server numbered by how many splitter keys are < its
        # key.  Sorted slices are routed and merged as in the kernel, and the
        # shuffle is charged by its per-destination counts.
        orders = [index_sort(k) for k in table_keys]
        sorted_keys = [list(map(k.__getitem__, o)) for k, o in zip(table_keys, orders)]
        cuts = [
            [0] + [bisect_right(sk, key) for key, _uid in splitters]
            + [len(sk)] * (p - len(splitters))
            for sk in sorted_keys
        ]
        routed, received = merge_slices(sorted_keys, orders, cuts)
        if p > 1:
            group.cluster.tally_members(group.members, received, f"{label}/table")

        summaries = [
            (tables[srcs[-1]][js[-1]] if js else None) for _ks, srcs, js in routed
        ]
        incoming = _coordinator_roundtrip(group, summaries, _carries, f"{label}/carry")

        keys = run.keys
        payloads = rel.parts if payloads is None else payloads
        out_parts: list[list[tuple[Any, Any, Any, Any]]] = []
        for rks, (_k, srcs, js), (tks, t_srcs, t_js), carry in zip(
            run_keys, run.parts, routed, incoming
        ):
            pred = (None, None) if carry is None else carry
            ti = 0
            n_t = len(tks)
            out: list[tuple[Any, Any, Any, Any]] = []
            for k, s, j in zip(rks, srcs, js):
                while ti < n_t and tks[ti] <= k:
                    pred = tables[t_srcs[ti]][t_js[ti]]
                    ti += 1
                out.append((keys[s][j], payloads[s][j], pred[0], pred[1]))
            out_parts.append(out)
        return out_parts


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
    cached projected keys and a specialized encoder.
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
        found = _search(
            group, rel_keys, filter_keys, filter_keys, label,
            pair_key_encoder(rel, pos_r, filter_rel, pos_f),
        )
        rows = rel.parts
        parts = [
            [rows[s][j] for s, j, pk in zip(srcs, js, preds) if pk == rel_keys[s][j]]
            for srcs, js, preds in found
        ]
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

        # Local run-length counts per server: [(sort_key, count)].
        counted = [
            [(k, sum(1 for _ in g)) for k, g in groupby(ks)]
            for ks, _srcs, _js in run.parts
        ]
        summaries = [
            (runs[0], runs[-1], len(runs)) if runs else None for runs in counted
        ]
        replies = _coordinator_roundtrip(
            group, summaries, _span_totals, f"{label}/stitch"
        )

        rows = rel.parts
        out_parts: list[list[tuple[Row, int]]] = []
        for (_ks, srcs, js), runs, (first, last) in zip(run.parts, counted, replies):
            degrees = [n for _k, n in runs]
            if last is not None:
                degrees[-1] = last
            if first is not None:
                degrees[0] = first
            origins = zip(srcs, js)
            out: list[tuple[Row, int]] = []
            for (_k, n), deg in zip(runs, degrees):
                out += [(rows[s][j], deg) for s, j in islice(origins, n)]
            out_parts.append(out)
        return out_parts


def _span_totals(summaries_list: list[Any]) -> list[Any]:
    """Global totals for each server's first and last (possibly spanning) run."""
    replies: list[list[Any]] = [[None, None] for _ in summaries_list]
    chain: list[Any] | None = None  # [okey, acc, [(server, slot), ...]]

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
