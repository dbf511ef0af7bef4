"""The parallel-packing primitive (paper Section 2).

:func:`parallel_packing` groups weighted items (0 < w <= 1) into bins of
total weight <= 1 with all but one bin >= 1/2.  Used to pack light
sub-instances onto single servers (Sections 3.2 and 4.2); the paper
leaves free which server a group goes to, so a group built on one server
stays there while that server holds O(1) groups.  Its O(p) coordinator
step is the one round trip every boundary step shares
(:func:`~repro.mpc.substrate.coordinator_roundtrip`).  Its grouping and
placement are one pure function, :func:`place_items`, which the pricer
calls too (:mod:`repro.core.planner`).  Heavy sub-instances need no
primitive: their callers lay out contiguous server ranges
(:func:`~repro.core.binary_join.heavy_layout`).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Iterable, Sequence

from repro.errors import AllocationError
from repro.mpc.cluster import prim_span
from repro.mpc.group import Group
from repro.mpc.substrate import coordinator_roundtrip

__all__ = ["parallel_packing", "place_items"]


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
        input; each server's bin by bin, its partial bin last, items in
        arrival order within a bin), group ids run ``0..n_groups-1`` and
        ``server`` is the group's destination, a local index of ``group``.
        Guarantees: every group's total weight is <= 1, and all but at
        most one group have weight >= 1/2, so ``n_groups <= 1 + 2 *
        total_weight`` (paper Section 2).  The grouping and placement are
        :func:`place_items`'.

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

    gids, servers = place_items([[w for _i, w in part] for part in parts])
    # One O(p) coordinator round trip: each server sends its full-bin count
    # and partial weight, and learns its full bins' offset, its partial
    # bin's group and its overflow bins' servers, from which its items'
    # groups and their servers follow (place_items reads them off for
    # every server at once).
    with prim_span(group.cluster, "ParallelPacking", label):
        gids = coordinator_roundtrip(group, gids, list, label)

    assignment_parts: list[list[tuple[Any, tuple[int, int]]]] = []
    for part, got in zip(parts, gids):
        # Bin by bin, the partial bin last; items in arrival order within one.
        by_bin = sorted(range(len(part)), key=got.__getitem__)
        assignment_parts.append([(part[i][0], (got[i], servers[got[i]])) for i in by_bin])
    return assignment_parts, len(servers)


def _pack_local(weights: Sequence[float]) -> tuple[list[int], int, float | None]:
    """One server's local grouping, in arrival order: an item of weight
    >= 1/2 takes a bin of its own; smaller items accumulate until the next
    one would overflow 1, so every closed small bin holds more than 1/2.

    Returns each item's full bin (numbered in closing order; ``-1`` for
    the partial bin), the number of full bins, and the partial bin's
    weight (``None`` when every bin is full, i.e. holds at least 1/2).
    """
    bins: list[int] = []
    n_full = 0
    cur: list[int] = []
    cur_w = 0.0
    for w in weights:
        if w >= 0.5:
            bins.append(n_full)
            n_full += 1
            continue
        if cur_w + w > 1.0 + 1e-12:
            for i in cur:
                bins[i] = n_full
            n_full += 1
            cur, cur_w = [], 0.0
        cur.append(len(bins))
        bins.append(-1)
        cur_w += w
    if cur and cur_w >= 0.5:
        for i in cur:
            bins[i] = n_full
        return bins, n_full + 1, None
    return bins, n_full, cur_w if cur else None


def place_items(weights: Sequence[Sequence[float]]) -> tuple[list[list[int]], list[int]]:
    """:func:`parallel_packing`'s grouping and placement, pure: from each
    server's item weights (in arrival order), per server each item's group
    id, and per group id its server.

    Each server packs its own items (:func:`_pack_local`).  Group ids
    number server 0's full bins, then server 1's, ..., then the leftover
    groups, which the partial bins (each < 1/2) first-fit into.  With
    ``m`` groups and ``cap = ceil(m / p)``, each server keeps its first
    ``min(bins, cap)`` full bins, so their items do not move.  Leftover
    group ``gid`` goes to ``gid % p``: their ids are consecutive and there
    are at most ``p`` of them, so each server receives at most one.  Each
    overflow bin (a server's full bins past ``cap``) then goes to the
    server holding the fewest groups so far, the lowest index on a tie;
    fewer than ``m`` groups are placed before it, so that server holds
    fewer than ``cap`` and ends with at most ``cap``.  In all, every
    server holds at most ``cap + 1`` groups: O(1) whenever the total
    weight is O(p), as the binary join's budgets make it.
    """
    local = [_pack_local(w) for w in weights]
    p = len(local)
    offsets = [0, *accumulate(n_full for _b, n_full, _w in local)]
    gid, cur_w = offsets[-1] - 1, None
    leftover: list[int] = []
    for _bins, _n, w in local:
        if w is not None:
            if cur_w is not None and cur_w + w <= 1.0 + 1e-12:
                cur_w += w
            else:
                gid, cur_w = gid + 1, w
        leftover.append(gid)
    n_groups = gid + 1
    cap = -(-n_groups // p)
    held = [min(n_full, cap) for _b, n_full, _w in local]
    for g in range(offsets[-1], n_groups):
        held[g % p] += 1
    servers: list[int] = []
    for src, (_bins, n_full, _w) in enumerate(local):
        servers += [src] * min(n_full, cap)
        for _ in range(n_full - cap):
            dest = min(range(p), key=held.__getitem__)
            held[dest] += 1
            servers.append(dest)
    servers += [g % p for g in range(offsets[-1], n_groups)]
    gids = [
        [off + b if b >= 0 else left for b in bins]
        for (bins, _n, _w), off, left in zip(local, offsets, leftover)
    ]
    return gids, servers
