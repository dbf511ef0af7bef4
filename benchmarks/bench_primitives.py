"""EXP-P1 — Section 2: the MPC primitives run with linear load.

Doubles IN at fixed p and checks each primitive's load doubles too
(stays ~ c * IN/p), including under heavy skew — the property every
algorithm in the paper builds on.
"""

from __future__ import annotations

import random

import pytest

from _common import print_table
from repro.data.relation import Relation
from repro.mpc import Cluster, distribute_relation
from repro.mpc.packing import parallel_packing
from repro.mpc.primitives import (
    attach_degrees,
    fold_by_key,
    multi_numbering,
    multi_search,
    sample_sort,
    semi_join,
    sum_by_key,
)

P = 8
SIZES = [4000, 8000, 16000]


def _loads_for(n: int) -> dict[str, int]:
    rng = random.Random(n)
    out: dict[str, int] = {}

    def fresh():
        cl = Cluster(P)
        return cl, cl.root_group()

    # Half uniform keys, half one heavy key: the skew-proofness check.
    keys = [rng.randrange(n // 4) for _ in range(n // 2)] + [0] * (n // 2)
    pairs = [(k, 1) for k in keys]
    parts = [pairs[i::P] for i in range(P)]

    cl, g = fresh()
    sample_sort(g, parts, lambda kv: kv[0], "sort")
    out["sample_sort"] = cl.snapshot().load

    cl, g = fresh()
    sum_by_key(g, parts)
    out["sum_by_key"] = cl.snapshot().load

    cl, g = fresh()
    multi_numbering(g, parts)
    out["multi_numbering"] = cl.snapshot().load

    cl, g = fresh()
    ys = [(v, v) for v in range(0, n, 7)]
    multi_search(g, parts, [ys[i::P] for i in range(P)])
    out["multi_search"] = cl.snapshot().load

    # The relation-aware readers of the boundary stitch, on the same keys.
    rel = Relation("H", ("K", "V"), [(k, i) for i, k in enumerate(keys)])
    cl, g = fresh()
    dist = distribute_relation(rel, g)
    values = [[v for _k, v in part] for part in dist.parts]
    fold_by_key(g, dist, ("K",), plus=max, values=values)
    out["fold_by_key"] = cl.snapshot().load

    cl, g = fresh()
    attach_degrees(g, distribute_relation(rel, g), ("K",))
    out["attach_degrees"] = cl.snapshot().load

    cl, g = fresh()
    r1 = Relation("R1", ("A", "B"), [(i, i % 64) for i in range(n)])
    r2 = Relation("R2", ("B", "C"), [(b, 0) for b in range(32)])
    semi_join(g, distribute_relation(r1, g), distribute_relation(r2, g))
    out["semi_join"] = cl.snapshot().load

    cl, g = fresh()
    items = [(i, rng.uniform(0.01, 1.0)) for i in range(n)]
    parallel_packing(g, [items[i::P] for i in range(P)])
    out["parallel_packing"] = cl.snapshot().load
    return out


@pytest.mark.benchmark(group="primitives")
def test_primitives_linear_load(benchmark):
    results = benchmark.pedantic(
        lambda: {n: _loads_for(n) for n in SIZES}, rounds=1, iterations=1
    )
    prims = sorted(results[SIZES[0]])
    rows = []
    for prim in prims:
        loads = [results[n][prim] for n in SIZES]
        rows.append([prim, *loads, loads[-1] / max(1, loads[0])])
    print_table(
        f"Section 2 primitives: load vs IN (p={P}, IN = {SIZES})",
        ["primitive", *[f"IN={n}" for n in SIZES], "x4 IN -> load"],
        rows,
    )
    for prim in prims:
        l0 = results[SIZES[0]][prim]
        l2 = results[SIZES[-1]][prim]
        if prim == "parallel_packing":
            continue  # O(p) coordination only: flat load by design
        # Linear: 4x IN gives <= ~6x load and >= ~2x (no hidden blowup
        # and genuinely data-proportional).
        assert l2 <= 6.5 * l0 + 20 * P, prim
        assert l2 >= 1.6 * l0, prim
    # Packing never moves data items: tiny load at every size.
    assert all(results[n]["parallel_packing"] <= 6 * P for n in SIZES)
