"""The output-optimal binary join: load O(IN/p + sqrt(OUT/p)).

The optimal equi-join of [8, 18] that the paper uses as its pairwise-join
subroutine everywhere (Sections 1.3, 4, 5).  Strategy:

1. Sort ``R1 ⊎ R2`` once on the join key, each tuple flagged with its
   side, and count both sides per key in one fold over that arrangement
   (sum-by-key), giving ``OUT_v = d1(v) * d2(v)`` per join value.
2. A key is *light* if it fits one server's budget
   (``d1+d2 <= IN/p`` and ``OUT_v <= OUT/p``): light keys are grouped with
   parallel-packing so each server receives O(IN/p) input and produces
   O(OUT/p) output.  A key's group id and the group's server land on the
   first server of the key's span, beside its tuples; one carry tells the
   servers after it.  A group packed on one server stays on it while that
   server holds O(1) groups, so most light tuples do not move again.
3. A *heavy* key gets its own rectangle of ``a x b`` servers with
   ``a*b ~ p * OUT_v / OUT``: its R1 tuples split into ``a`` balanced chunks
   (multi-numbering on the same arrangement), its R2 tuples into ``b``,
   chunk ``i`` of R1 meets chunk ``j`` of R2 on exactly one server, so each
   server receives ``d1/a + d2/b = O(sqrt(OUT_v / p_v)) = O(sqrt(OUT/p))``
   tuples.

One PSRS pass in all, before the one shuffle to the cells.  The
arrangement belongs to neither input, so it is paid on every call.  Each
result pair is produced on exactly one server (no duplicate emission).

The shuffle is simulated as index arrays, never as row tuples: per
message its sending and receiving server, cell, side, key rank and row
index.  Its per-server counts are the ledger post (one
:meth:`~repro.mpc.cluster.Cluster.tally_members` call, under a
``RouteCells`` primitive span), and each server's cells are gathered from
the inputs' column parts (:meth:`~repro.data.columns.ColumnBlock.take`)
and joined on integer ``(cell, key rank)`` codes.  A column-backed input
never builds its row view here; a row-backed one is encoded once.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from repro.data.columns import ColumnBlock
from repro.mpc.cluster import prim_span
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.mpc.primitives import (
    arrange_sides,
    carry_left,
    coordinator_for,
    global_sum,
    number_sorted,
    side_degrees,
)

__all__ = ["binary_join"]


def budgets(in_size: float, out_size: float, p: int) -> tuple[float, float]:
    """``(L_in, L_out)``: one server's input and output budget."""
    return max(1.0, 2.0 * in_size / p), max(1.0, out_size / p)


def key_weight(c1, c2, l_in: float, l_out: float):
    """Per key with ``c1`` and ``c2`` rows on the two sides (arrays), its
    share of one server's budgets: a key above 1 is heavy."""
    return np.maximum((c1 + c2) / l_in, c1 * c2 / l_out)


def heavy_rectangle(c1: float, c2: float, l_in: float, l_out: float) -> tuple[int, int]:
    """``(a, b)``: a heavy key's ``a x b`` servers, ``a * b ~ c1 c2 / L_out``
    shaped to its sides, with no chunk above the input budget."""
    p_v = max(1, math.ceil(c1 * c2 / l_out))
    a = max(1, min(p_v, round(math.sqrt(p_v * c1 / max(1, c2)))))
    b = max(1, math.ceil(p_v / a))
    return max(a, math.ceil(c1 / l_in)), max(b, math.ceil(c2 / l_in))


def heavy_layout(
    heavy: Iterable[tuple[int, float, float]], l_in: float, l_out: float
) -> dict[int, tuple[int, int, int]]:
    """Where heavy keys' rectangles go: from ``(key, c1, c2)`` triples,
    ``key -> (start, a, b)``, the keys in order, each taking the next
    ``a x b`` virtual servers; virtual server ``v`` is physical server
    ``v % p``."""
    layout: dict[int, tuple[int, int, int]] = {}
    cursor = 0
    for k, c1, c2 in sorted(heavy):
        a, b = heavy_rectangle(c1, c2, l_in, l_out)
        layout[k] = (cursor, a, b)
        cursor += a * b
    return layout


def binary_join(
    group: Group,
    r1: DistRelation,
    r2: DistRelation,
    label: str = "binjoin",
    name: str | None = None,
) -> DistRelation:
    """Natural join of two distributed relations, output-optimally.

    The output schema is ``r1.attrs`` followed by ``r2``'s remaining
    attributes.  Payload (annotation) columns never collide, so they ride
    along untouched.

    When the schemas share no attributes the join is a Cartesian product,
    run by :func:`repro.core.hypercube.hypercube_cartesian` on the two
    sides (``{label}/cart``): a side whose share is 1 is broadcast and the
    other stays where it is; only two spread sides take the grid.
    """
    out_name = name or f"{r1.name}*{r2.name}"
    shared = tuple(sorted(set(r1.attrs) & set(r2.attrs)))
    if not shared:
        from repro.core.hypercube import hypercube_cartesian

        return hypercube_cartesian(group, [r1, r2], label=f"{label}/cart", name=out_name)

    p = group.size
    extra2 = tuple(a for a in r2.attrs if a not in set(r1.attrs))
    out_attrs = r1.attrs + extra2
    pos2_extra = r2.positions(extra2)

    # --- Step 1: one arrangement of r1 ⊎ r2; per-key degrees. -----------
    # Every later step reads this one sort: items in (key, side, uid) order.
    arr = arrange_sides(group, r1, r2, shared, f"{label}/sort")
    # Keys present in both sides: (key rank, d1, d2), on the key's first server.
    stats_parts = [
        [(k, c1, c2) for k, c1, c2 in part if c1 and c2]
        for part in side_degrees(group, arr, f"{label}/deg")
    ]
    out_total = global_sum(
        group,
        [sum(c1 * c2 for _k, c1, c2 in part) for part in stats_parts],
        f"{label}/out",
    )
    in_total = len(arr.order)
    if out_total == 0:
        return DistRelation.empty(out_name, out_attrs, p)

    l_in, l_out = budgets(in_total, out_total, p)

    # --- Step 2: classify keys; plan heavy rectangles. -------------------
    counts = np.array([kc for part in stats_parts for kc in part], np.int64).reshape(-1, 3)
    weights = iter(key_weight(counts[:, 1], counts[:, 2], l_in, l_out).tolist())
    light_parts: list[list[tuple[int, float]]] = []
    heavy_parts: list[list[tuple[int, int, int]]] = []
    for part in stats_parts:
        tagged = list(zip(part, weights))  # the part's own len(part) weights
        light_parts.append([(kc[0], max(w, 1e-9)) for kc, w in tagged if w <= 1.0])
        heavy_parts.append([kc for kc, w in tagged if w > 1.0])

    from repro.mpc.packing import parallel_packing

    # Each light key's (group id, server) lands on its first server,
    # beside the key's lowest-uid item.
    assignments, n_groups = parallel_packing(group, light_parts, f"{label}/pack")

    # Heavy rectangles: key -> (start, a, b) (heavy_layout).
    coord = coordinator_for(group, label)
    heavy_all = group.gather(
        [list(hp) for hp in heavy_parts], f"{label}/heavy-gather", dst=coord
    )
    heavy_desc = heavy_layout(heavy_all, l_in, l_out)
    group.broadcast(list(heavy_desc.items()), f"{label}/heavy-bcast", src=coord)

    # --- Step 3: route tuples to cells. ----------------------------------
    # Light: a key spanning servers is the last one its first server owns;
    # the servers after it learn its group id and server from one carry.
    # That carried entry is the one the key's first server holds, so one
    # table indexed by key rank serves every server.
    carry_left(
        group, [max(part, default=None) for part in assignments], f"{label}/light/carry"
    )
    key_ranks = arr.ranks >> 1
    n_keys = int(key_ranks[-1]) + 1
    light_cell = np.full(n_keys, -1, np.int64)
    light_dest = np.zeros(n_keys, np.int64)
    for part in assignments:
        for k, (gid, dest) in part:
            light_cell[k], light_dest[k] = gid, dest
    # Heavy: chunk indices from one numbering of the heavy keys' items,
    # consecutive per key and side.
    rect = np.zeros((3, n_keys), np.int64)  # start, a, b per key rank
    for k, desc in heavy_desc.items():
        rect[:, k] = desc
    heavy = np.isin(key_ranks, np.fromiter(heavy_desc, np.int64, len(heavy_desc)))
    nums = np.array(number_sorted(group, arr, f"{label}/heavy-number", heavy), np.int64)

    with prim_span(group.cluster, "RouteCells", f"{r1.name} ⋈ {r2.name} {label}/shuffle"):
        routed = _route(arr, key_ranks, light_cell, light_dest, rect, nums, n_groups, p)
        received = np.bincount(routed.dest[routed.dest != routed.src], minlength=p)
        group.cluster.tally_members(group.members, received.tolist(), f"{label}/shuffle")

    # --- Step 4: local cell joins (emission is free). --------------------
    # Each server joins what it received on integer ``(cell, key rank)``
    # codes, gathering both sides straight from the input column parts:
    # cells in first-arrival order, each side in arrival order within a
    # cell, side 1 rows each followed by their side 2 matches.
    side1 = r1.block()
    side2 = r2.block().select(pos2_extra)
    inbox = np.argsort(routed.dest, kind="stable")  # per server, arrival order
    bounds = np.searchsorted(routed.dest[inbox], np.arange(p + 1)).tolist()
    blocks: list[ColumnBlock] = []
    for lo, hi in zip(bounds, bounds[1:]):
        got = inbox[lo:hi]
        idx1, idx2 = _cell_join(routed.cell[got], routed.side[got], routed.key[got], n_keys)
        picked = routed.row[got]
        blocks.append(ColumnBlock(
            len(idx1), side1.take(picked[idx1]).columns + side2.take(picked[idx2]).columns
        ))
    return DistRelation.from_column_parts(out_name, out_attrs, blocks)


class _Messages(NamedTuple):
    """The cell messages of one binary join, one entry per message, in
    sending order (by sending server, then along the arrangement)."""

    src: np.ndarray   # sending server
    dest: np.ndarray  # receiving server
    cell: np.ndarray  # light group id, or n_groups + the heavy cell's virtual server
    side: np.ndarray  # 0: an r1 row, 1: an r2 row
    key: np.ndarray   # key rank
    row: np.ndarray   # the row's index in its side's concatenated parts


def _route(arr, key_ranks, light_cell, light_dest, rect, nums, n_groups: int, p: int) -> _Messages:
    """Every cell message, as arrays: a light item goes once to its group's
    server; an item of a heavy key with rectangle ``a x b`` goes to a row
    (side 1: ``b`` cells) or a column (side 2: ``a`` cells) of it, chosen
    by its number; every other item (its key is on one side only) stays."""
    side = arr.ranks & 1
    light = light_cell[key_ranks] >= 0
    start, a, b = rect[:, key_ranks]
    reps = np.where(light, 1, np.where(nums > 0, np.where(side == 1, a, b), 0))
    item = np.repeat(np.arange(len(reps)), reps)
    first = np.cumsum(reps) - reps
    copy = np.arange(len(item)) - first[item]  # which of the item's messages
    num = nums[item] - 1
    side_m, a_m, b_m = side[item], a[item], b[item]
    i = np.where(side_m == 1, copy, num % np.maximum(a_m, 1))
    j = np.where(side_m == 1, num % np.maximum(b_m, 1), copy)
    virtual = start[item] + i * b_m + j
    key_m = key_ranks[item]
    lit = light[item]
    # Flat position -> the row's index in its side's concatenated parts:
    # source s holds its r1 rows, then its r2 rows, from flat starts[s].
    n_src = np.diff(arr.starts)
    srcs = arr.srcs.astype(np.int64)
    j_src = arr.order - arr.starts[srcs]
    n1 = np.bincount(srcs[side == 0], minlength=p)
    off = np.stack([np.cumsum(n1) - n1, np.cumsum(n_src - n1) - (n_src - n1) - n1])
    row = j_src + off[side, srcs]
    held = np.repeat(np.arange(p), np.diff(arr.cuts))
    return _Messages(
        src=held[item],
        dest=np.where(lit, light_dest[key_m], virtual % p),
        cell=np.where(lit, light_cell[key_m], n_groups + virtual),
        side=side_m,
        key=key_m,
        row=row[item],
    )


def _cell_join(cell, side, key, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """One server's local join over the messages it received, in arrival
    order: the positions of matching side 1 and side 2 messages, pair by
    pair in emission order.  Only cells holding both sides join; cells
    run in first-arrival order and each side in arrival order within its
    cell; pairs match on ``(cell, key rank)``."""
    cells, first, which = np.unique(cell, return_index=True, return_inverse=True)
    arrival = np.empty(len(cells), np.int64)
    arrival[np.argsort(first)] = np.arange(len(cells))
    both = (np.bincount(which, side == 0, len(cells)) > 0) & (
        np.bincount(which, side == 1, len(cells)) > 0
    )
    code = arrival[which] * n_keys + key
    sides = []
    for s in (0, 1):
        at = np.flatnonzero((side == s) & both[which])
        sides.append(at[np.argsort(arrival[which[at]], kind="stable")])
    left, right = sides
    right = right[np.argsort(code[right], kind="stable")]
    right_codes = code[right]
    lo = np.searchsorted(right_codes, code[left], "left")
    matches = np.searchsorted(right_codes, code[left], "right") - lo
    pair_left = np.repeat(np.arange(len(left)), matches)
    pair_first = np.cumsum(matches) - matches
    pair_right = np.repeat(lo, matches) + np.arange(len(pair_left)) - pair_first[pair_left]
    return left[pair_left], right[pair_right]
