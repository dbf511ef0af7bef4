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
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Any

import numpy as np

from repro.core.common import gather_join
from repro.data.columns import ColumnBlock
from repro.data.relation import Row
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
    pos1 = r1.positions(shared)
    pos2 = r2.positions(shared)
    pos2_extra = r2.positions(extra2)

    # --- Step 1: one arrangement of r1 ⊎ r2; per-key degrees. -----------
    # Every later step reads this one sort: items in (key, side, uid) order.
    rows, arr = arrange_sides(group, r1, r2, shared, f"{label}/sort")
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
    in_total = len(rows)
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
    assignments, _n_groups = parallel_packing(group, light_parts, f"{label}/pack")

    # Heavy rectangles: key -> (start, a, b); start indexes a virtual server
    # span mapped onto physical servers modulo p.
    coord = coordinator_for(group, label)
    heavy_all = group.gather(
        [list(hp) for hp in heavy_parts], f"{label}/heavy-gather", dst=coord
    )
    heavy_desc: dict[int, tuple[int, int, int]] = {}
    cursor = 0
    for k, c1, c2 in sorted(heavy_all):
        a, b = heavy_rectangle(c1, c2, l_in, l_out)
        heavy_desc[k] = (cursor, a, b)
        cursor += a * b
    group.broadcast(list(heavy_desc.items()), f"{label}/heavy-bcast", src=coord)

    # --- Step 3: route tuples to cells. ----------------------------------
    # Light: a key spanning servers is the last one its first server owns;
    # the servers after it learn its group id and server from one carry.
    tables = [dict(part) for part in assignments]
    carried = carry_left(
        group,
        [max(t.items()) if t else None for t in tables],
        f"{label}/light/carry",
    )
    for table, got in zip(tables, carried):
        if got is not None:
            table.setdefault(*got)

    # Heavy: chunk indices from one numbering of the heavy keys' items,
    # consecutive per key and side.
    key_ranks = arr.ranks >> 1
    heavy = np.isin(key_ranks, np.fromiter(heavy_desc, np.int64, len(heavy_desc)))
    nums = number_sorted(group, arr, f"{label}/heavy-number", heavy)

    # One physical routing step delivers every cell message.
    order, side_of, krs = arr.order.tolist(), (arr.ranks & 1).tolist(), key_ranks.tolist()
    outboxes: list[list[tuple[int, Any]]] = []
    for (lo, hi), table in zip(arr.slices(), tables):
        box: list[tuple[int, Any]] = []
        for f, side, k, num in zip(order[lo:hi], side_of[lo:hi], krs[lo:hi], nums[lo:hi]):
            placed = table.get(k)
            if placed is not None:
                gid, dest = placed
                box.append((dest, (("L", gid), side + 1, rows[f])))
            elif num:
                start, a, b = heavy_desc[k]
                if side:
                    j = (num - 1) % b
                    box += [
                        ((start + i * b + j) % p, (("H", k, i, j), 2, rows[f]))
                        for i in range(a)
                    ]
                else:
                    i = (num - 1) % a
                    box += [
                        ((start + i * b + j) % p, (("H", k, i, j), 1, rows[f]))
                        for j in range(b)
                    ]
        outboxes.append(box)
    inboxes = group.exchange(outboxes, f"{label}/shuffle")

    # --- Step 4: local cell joins (emission is free). --------------------
    # Each inbox side is encoded once and joined on ``(cell number, key)``:
    # cells in first-arrival order, side 1 in arrival order within a cell.
    arity1, arity2 = len(r1.attrs), len(r2.attrs)
    key1, key2 = itemgetter(*pos1), itemgetter(*pos2)
    blocks: list[ColumnBlock] = []
    for inbox in inboxes:
        cells: dict[Any, tuple[list[Row], list[Row]]] = {}
        for cell_id, side, row in inbox:
            sides = cells.setdefault(cell_id, ([], []))
            sides[side - 1].append(row)
        rows1: list[Row] = []
        rows2: list[Row] = []
        cell_of1, cell_of2 = [], []
        for n, (cell1, cell2) in enumerate(cells.values()):
            if cell1 and cell2:
                rows1 += cell1
                rows2 += cell2
                cell_of1 += [n] * len(cell1)
                cell_of2 += [n] * len(cell2)
        blocks.append(gather_join(
            ColumnBlock.from_rows(rows1, arity1),
            list(zip(cell_of1, map(key1, rows1))),
            ColumnBlock.from_rows(rows2, arity2).select(pos2_extra),
            list(zip(cell_of2, map(key2, rows2))),
        ))
    return DistRelation.from_column_parts(out_name, out_attrs, blocks)
