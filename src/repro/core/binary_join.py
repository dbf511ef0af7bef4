"""The output-optimal binary join: load O(IN/p + sqrt(OUT/p)).

The optimal equi-join of [8, 18] that the paper uses as its pairwise-join
subroutine everywhere (Sections 1.3, 4, 5).  Strategy:

1. Compute per-key degrees on both sides (sum-by-key) and merge them
   (multi-search), giving ``OUT_v = d1(v) * d2(v)`` per join value.
2. A key is *light* if it fits one server's budget
   (``d1+d2 <= IN/p`` and ``OUT_v <= OUT/p``): light keys are grouped with
   parallel-packing so each server receives O(IN/p) input and produces
   O(OUT/p) output.
3. A *heavy* key gets its own rectangle of ``a x b`` servers with
   ``a*b ~ p * OUT_v / OUT``: its R1 tuples split into ``a`` balanced chunks
   (multi-numbering), its R2 tuples into ``b``, chunk ``i`` of R1 meets
   chunk ``j`` of R2 on exactly one server, so each server receives
   ``d1/a + d2/b = O(sqrt(OUT_v / p_v)) = O(sqrt(OUT/p))`` tuples.

Each result pair is produced on exactly one server (no duplicate emission).
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Any

from repro.core.common import gather_join
from repro.data.columns import ColumnBlock
from repro.data.relation import Row
from repro.mpc.distrel import DistRelation
from repro.mpc.group import Group
from repro.mpc.primitives import (
    coordinator_for,
    count_by_key,
    global_sum,
    multi_search,
    number_rows,
    search_rows,
)
from repro.mpc.substrate import column_tags

__all__ = ["binary_join"]


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

    Falls back to the two-relation HyperCube when the schemas share no
    attributes (a Cartesian product).
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

    # --- Step 1: per-key degrees and output statistics. -----------------
    # One sorted run per relation (cached on it) backs the degree count
    # here, the light lookup, and the heavy numbering below.
    d1 = count_by_key(group, r1, shared, f"{label}/deg1")
    d2 = count_by_key(group, r2, shared, f"{label}/deg2")
    # Both degree tables hold projected keys of one relation each, so a
    # pair whose homogeneity tags agree sorts them raw.
    merged = multi_search(
        group,
        [[(k, c) for k, c in part] for part in d1],
        [[(k, c) for k, c in part] for part in d2],
        f"{label}/degmerge",
        tags=column_tags((r1, pos1), (r2, pos2)),
    )
    # Keys present in both sides: (key, d1, d2).
    stats_parts: list[list[tuple[Any, int, int]]] = [
        [(k, c1, c2) for k, c1, pk, c2 in part if pk == k] for part in merged
    ]
    out_total = global_sum(
        group,
        [sum(c1 * c2 for _k, c1, c2 in part) for part in stats_parts],
        f"{label}/out",
    )
    in_total = r1.total_size() + r2.total_size()
    if out_total == 0:
        return DistRelation.empty(out_name, out_attrs, p)

    l_in = max(1.0, 2.0 * in_total / p)
    l_out = max(1.0, out_total / p)

    # --- Step 2: classify keys; plan heavy rectangles. -------------------
    def weight(c1: int, c2: int) -> float:
        return max((c1 + c2) / l_in, (c1 * c2) / l_out)

    light_parts: list[list[tuple[Any, float]]] = []
    heavy_parts: list[list[tuple[Any, int, int]]] = []
    for part in stats_parts:
        lp: list[tuple[Any, float]] = []
        hp: list[tuple[Any, int, int]] = []
        for k, c1, c2 in part:
            w = weight(c1, c2)
            if w <= 1.0:
                lp.append((k, max(w, 1e-9)))
            else:
                hp.append((k, c1, c2))
        light_parts.append(lp)
        heavy_parts.append(hp)

    from repro.mpc.packing import parallel_packing

    assignments, _n_groups = parallel_packing(group, light_parts, f"{label}/pack")

    # Heavy rectangles: key -> (start, a, b); start indexes a virtual server
    # span mapped onto physical servers modulo p.
    coord = coordinator_for(group, label)
    heavy_all = group.gather(
        [list(hp) for hp in heavy_parts], f"{label}/heavy-gather", dst=coord
    )
    heavy_desc: dict[Any, tuple[int, int, int]] = {}
    cursor = 0
    for k, c1, c2 in sorted(heavy_all, key=lambda t: repr(t[0])):
        p_v = max(1, math.ceil((c1 * c2) / l_out))
        a = max(1, min(p_v, round(math.sqrt(p_v * c1 / max(1, c2)))))
        b = max(1, math.ceil(p_v / a))
        # Input-side guarantee: chunks no bigger than the input budget.
        a = max(a, math.ceil(c1 / l_in))
        b = max(b, math.ceil(c2 / l_in))
        heavy_desc[k] = (cursor, a, b)
        cursor += a * b
    group.broadcast(list(heavy_desc.items()), f"{label}/heavy-bcast", src=coord)

    # --- Step 3: route tuples to cells. ----------------------------------
    # Light: key -> group id (predecessor search against the assignments,
    # riding the relation's cached sorted run).
    def lookup_light(rel: DistRelation) -> list[list[tuple[Row, int]]]:
        found = search_rows(
            group, rel, shared, assignments, f"{label}/light-lookup"
        )
        return [
            [(row, gid) for key, row, pk, gid in part if pk == key]
            for part in found
        ]

    light1 = lookup_light(r1)
    light2 = lookup_light(r2)

    # Heavy: chunk indices via per-key numbering restricted to heavy keys
    # (fused onto the same run; numbering is consecutive within the subset).
    def heavy_rows(rel: DistRelation) -> list[list[tuple[Any, Row, int]]]:
        return number_rows(
            group, rel, shared, f"{label}/heavy-number", only_keys=heavy_desc
        )

    heavy1 = heavy_rows(r1)
    heavy2 = heavy_rows(r2)

    # One physical routing step delivers every cell message.
    outboxes: list[list[tuple[int, Any]]] = [[] for _ in range(p)]
    for src in range(p):
        for row, gid in light1[src]:
            outboxes[src].append((gid % p, (("L", gid), 1, row)))
        for row, gid in light2[src]:
            outboxes[src].append((gid % p, (("L", gid), 2, row)))
        for k, row, num in heavy1[src]:
            start, a, b = heavy_desc[k]
            i = (num - 1) % a
            for j in range(b):
                cell = start + i * b + j
                outboxes[src].append((cell % p, (("H", k, i, j), 1, row)))
        for k, row, num in heavy2[src]:
            start, a, b = heavy_desc[k]
            j = (num - 1) % b
            for i in range(a):
                cell = start + i * b + j
                outboxes[src].append((cell % p, (("H", k, i, j), 2, row)))
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
