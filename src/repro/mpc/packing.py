"""The parallel-packing primitive (paper Section 2).

:func:`parallel_packing` groups weighted items (0 < w <= 1) into bins of
total weight <= 1 with all but one bin >= 1/2.  Used to pack light
sub-instances onto single servers (Sections 3.2 and 4.2); the paper
leaves free which server a group goes to, so a group built on one server
stays there while that server holds O(1) groups.  Its O(p) coordinator
step is the one round trip every boundary step shares
(:func:`~repro.mpc.substrate.coordinator_roundtrip`).  Heavy sub-instances
need no primitive: their callers lay out contiguous server ranges inline.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Iterable, Sequence

from repro.errors import AllocationError
from repro.mpc.cluster import prim_span
from repro.mpc.group import Group
from repro.mpc.substrate import coordinator_roundtrip

__all__ = ["parallel_packing"]


def parallel_packing(
    group: Group,
    parts: Sequence[Iterable[tuple[Any, float]]],
    label: str = "packing",
) -> tuple[list[list[tuple[Any, tuple[int, int]]]], int]:
    """Pack weighted items into groups of total weight <= 1, and place
    every group on a server.

    Args:
        group: The server group executing the primitive.
        parts: Per-server ``(item_id, weight)`` pairs with ``0 < weight <= 1``.

    Returns:
        ``(assignment_parts, n_groups)`` where assignments are
        ``(item_id, (group_id, server))`` pairs (same distribution as the
        input), group ids run ``0..n_groups-1`` and ``server`` is the
        group's destination, a local index of ``group``.  Guarantees:
        every group's total weight is <= 1, and all but at most one group
        have weight >= 1/2, so ``n_groups <= 1 + 2 * total_weight`` (paper
        Section 2).

    Placement.  A full bin holds items of one server only, so it can stay
    there: with ``m = n_groups`` and ``cap = ceil(m / p)``, each server
    keeps its first ``min(bins, cap)`` full bins.  The leftover groups,
    packed from the servers' partial bins, go to ``group_id % p``;
    their ids are consecutive and there are at most ``p`` of them, so each
    server receives at most one.  Each overflow bin (a server's full bins
    past ``cap``) then goes to the server holding the fewest groups so
    far, the lowest index on a tie; fewer than ``m`` groups are placed
    before it, so that server holds fewer than ``cap`` and ends with at
    most ``cap``.  In all, every server holds at most ``cap + 1`` groups:
    O(1) whenever the total weight is O(p), as the binary join's budgets
    make it.  Items of a kept bin do not move.

    Note:
        The paper recurses on the p leftover partial bins; with
        ``IN >= p^2`` a single O(p)-unit coordinator pass packs them
        directly, which is what we do (see DESIGN.md).  The same pass
        places the groups, so placing adds no step or message.
    """
    parts = [list(p) for p in parts]
    for part in parts:
        for item_id, w in part:
            if not 0 < w <= 1 + 1e-12:
                raise AllocationError(f"weight {w} of item {item_id!r} not in (0, 1]")

    # Local grouping: items of weight >= 1/2 each take their own bin; small
    # items accumulate until the next one would overflow 1, so every closed
    # small bin holds > 1 - 1/2 = 1/2.  At most one partial (< 1/2) bin per
    # server remains.
    local_bins_per_server: list[list[list[tuple[Any, float]]]] = []
    leftovers: list[tuple[float, list[Any]] | None] = []
    for part in parts:
        full: list[list[tuple[Any, float]]] = []
        cur: list[tuple[Any, float]] = []
        cur_w = 0.0
        for item_id, w in part:
            if w >= 0.5:
                full.append([(item_id, w)])
                continue
            if cur_w + w > 1.0 + 1e-12:
                full.append(cur)
                cur, cur_w = [], 0.0
            cur.append((item_id, w))
            cur_w += w
        partial: list[tuple[Any, float]] = []
        if cur:
            if cur_w >= 0.5:
                full.append(cur)
            else:
                partial = cur
        local_bins_per_server.append(full)
        leftovers.append(
            (sum(w for _i, w in partial), [i for i, _w in partial]) if partial else None
        )

    # Prefix sums over full-bin counts, packing of the <= p leftover
    # partial bins into final groups, and every group's server: one O(p)
    # coordinator round trip.
    summaries = [
        (len(bins), None if leftover is None else leftover[0])
        for bins, leftover in zip(local_bins_per_server, leftovers)
    ]
    with prim_span(group.cluster, "ParallelPacking", label):
        replies = coordinator_roundtrip(group, summaries, _pack_leftovers, label)
    n_groups = replies[0][2]
    p = group.size

    assignment_parts: list[list[tuple[Any, tuple[int, int]]]] = []
    for src, (bins, leftover, (offset, leftover_gid, _n, moved)) in enumerate(
        zip(local_bins_per_server, leftovers, replies)
    ):
        dests = [src] * (len(bins) - len(moved)) + list(moved)
        out = [
            (item_id, (offset + local_gid, dest))
            for local_gid, (bin_items, dest) in enumerate(zip(bins, dests))
            for item_id, _w in bin_items
        ]
        if leftover is not None:
            out += [(item_id, (leftover_gid, leftover_gid % p)) for item_id in leftover[1]]
        assignment_parts.append(out)
    return assignment_parts, n_groups


def _pack_leftovers(summaries: list) -> list[tuple[int, int | None, int, tuple[int, ...]]]:
    """Coordinator rule of :func:`parallel_packing`: from each server's
    ``(full bins, leftover weight or None)``, reply ``(offset of its full
    bins, group of its leftover bin, total group count, servers of its
    full bins past the cap)``; the leftover bins (each < 1/2) first-fit
    into groups after the full ones, and the groups are placed as
    :func:`parallel_packing` sets out."""
    p = len(summaries)
    offsets = [0, *accumulate(cnt for cnt, _w in summaries)]
    gid, cur_w = offsets[-1] - 1, None
    gids: list[int | None] = []
    for _cnt, w in summaries:
        if w is not None:
            if cur_w is not None and cur_w + w <= 1.0 + 1e-12:
                cur_w += w
            else:
                gid, cur_w = gid + 1, w
        gids.append(None if w is None else gid)
    n_groups = gid + 1
    cap = -(-n_groups // p)
    held = [min(cnt, cap) for cnt, _w in summaries]
    for g in range(offsets[-1], n_groups):
        held[g % p] += 1
    moved: list[tuple[int, ...]] = []
    for cnt, _w in summaries:
        dests = []
        for _ in range(cnt - cap):
            dest = min(range(p), key=held.__getitem__)
            held[dest] += 1
            dests.append(dest)
        moved.append(tuple(dests))
    return [(off, g, n_groups, m) for off, g, m in zip(offsets, gids, moved)]
