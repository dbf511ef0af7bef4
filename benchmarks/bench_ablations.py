"""EXP-ABL — ablations of the design choices DESIGN.md calls out.

1. Heavy/light decomposition (Sec 4.2): force the line-3 algorithm's
   threshold to the extremes (tau -> 0: everything heavy; tau -> inf:
   everything light) and compare against the balanced sqrt(OUT/IN).
   Each extreme collapses to one of Figure 3's bad join orders.
2. Heavy-key rectangles in the binary join: a plain hash join (no heavy
   handling) melts under skew; the rectangle allocation keeps the load at
   the sqrt(OUT/p) bound.
3. Planner vs decomposition: on the doubled trap even the *best* priced
   Yannakakis order stays OUT-scale — planning cannot replace the
   Section 4.2 algorithm, matching the paper's argument for it.
"""

from __future__ import annotations

import math

import pytest

from _common import print_table
from repro.core.binary_join import binary_join
from repro.core.planner import price_fold_orders
from repro.core.runner import mpc_join
from repro.core.yannakakis import yannakakis_mpc
from repro.data.generators import line_trap_instance
from repro.data.instance import Instance
from repro.data.relation import Relation, project_row
from repro.mpc import Cluster, distribute_instance
from repro.mpc.hashing import stable_hash
from repro.query import catalog

P = 8


def _tau_ablation():
    """Emulate tau extremes via the equivalent fixed join orders."""
    inst = line_trap_instance(3, 3000, 120000, doubled=True)
    rows = []
    # tau -> inf: every B value light -> Q2's order (R1 x R2) x R3 only.
    res = mpc_join(inst.query, inst, p=P, algorithm="yannakakis",
                   plan=("R1", "R2", "R3"))
    rows.append(["tau=inf (all light)", res.report.load])
    # tau -> 0: every B value heavy -> Q1's order (R2 x R3) x R1 only.
    res = mpc_join(inst.query, inst, p=P, algorithm="yannakakis",
                   plan=("R2", "R3", "R1"))
    rows.append(["tau=0 (all heavy)", res.report.load])
    res = mpc_join(inst.query, inst, p=P, algorithm="line3")
    rows.append(["tau=sqrt(OUT/IN) (Sec 4.2)", res.report.load])
    return rows, inst


def _skew_ablation():
    """Binary join with one hot key whose degree >> IN/p.

    Plain hashing must land the whole hot key (d1 + d2 tuples) on one
    server; the rectangle allocation splits it into balanced chunks.  Run
    at p = 32 so the hot degree dominates the IN/p floor.
    """
    p = 32
    q = catalog.binary_join()
    hot_d1, hot_d2, light = 12000, 50, 1000
    rows1 = [(f"a{i}", "hot") for i in range(hot_d1)] + [
        (f"a{i}", f"b{i}") for i in range(light)
    ]
    rows2 = [("hot", f"c{i}") for i in range(hot_d2)] + [
        (f"b{i}", f"c{i}") for i in range(light)
    ]
    inst = Instance(
        q,
        {
            "R1": Relation("R1", ("A", "B"), rows1),
            "R2": Relation("R2", ("B", "C"), rows2),
        },
    )

    out = []
    cl = Cluster(p)
    g = cl.root_group()
    rels = distribute_instance(inst, g)
    binary_join(g, rels["R1"], rels["R2"])
    out.append(["heavy rectangles (lib)", cl.snapshot().load])

    # Ablated: plain hash partitioning by the join key.
    cl = Cluster(p)
    g = cl.root_group()
    rels = distribute_instance(inst, g)
    for rel in (rels["R1"], rels["R2"]):
        pos = rel.positions(("B",))
        g.route(rel.parts, lambda row: stable_hash(project_row(row, pos)) % p, "hash")
    out.append(["plain hash join (ablated)", cl.snapshot().load])
    out_size = hot_d1 * hot_d2 + light
    bound = inst.input_size / p + math.sqrt(out_size / p)
    return out, bound


def _planner_ablation():
    inst = line_trap_instance(3, 2000, 30000, doubled=True)
    choice, _quality = price_fold_orders(inst.query, inst, P)

    cl = Cluster(P)
    g = cl.root_group()
    yannakakis_mpc(g, inst.query, distribute_instance(inst, g), plan=choice.order)
    planned = cl.snapshot().load

    res = mpc_join(inst.query, inst, p=P, algorithm="line3")
    return [
        ["planned Yannakakis (best order)", planned],
        ["line3 decomposition", res.report.load],
    ], inst


@pytest.mark.benchmark(group="ablations")
def test_ablation_tau_extremes(benchmark):
    (rows, inst) = benchmark.pedantic(_tau_ablation, rounds=1, iterations=1)
    print_table(
        f"Ablation: heavy/light threshold on the doubled trap "
        f"(IN={inst.input_size}, OUT={inst.output_size()})",
        ["variant", "load"],
        rows,
    )
    loads = dict((r[0], r[1]) for r in rows)
    full = loads["tau=sqrt(OUT/IN) (Sec 4.2)"]
    assert full < 0.5 * loads["tau=inf (all light)"]
    assert full < 0.5 * loads["tau=0 (all heavy)"]


@pytest.mark.benchmark(group="ablations")
def test_ablation_heavy_rectangles(benchmark):
    (rows, bound) = benchmark.pedantic(_skew_ablation, rounds=1, iterations=1)
    print_table(
        "Ablation: binary join under one hot key (half the output)",
        ["variant", "load"],
        rows,
    )
    loads = dict((r[0], r[1]) for r in rows)
    # Plain hashing piles the hot key's tuples onto one server.
    assert loads["plain hash join (ablated)"] > 2 * loads["heavy rectangles (lib)"]
    assert loads["heavy rectangles (lib)"] <= 12 * bound


@pytest.mark.benchmark(group="ablations")
def test_ablation_planner_vs_decomposition(benchmark):
    (rows, inst) = benchmark.pedantic(_planner_ablation, rounds=1, iterations=1)
    print_table(
        f"Ablation: best planned order vs Sec 4.2 on the doubled trap "
        f"(OUT={inst.output_size()})",
        ["variant", "load"],
        rows,
    )
    loads = dict((r[0], r[1]) for r in rows)
    assert loads["line3 decomposition"] < loads["planned Yannakakis (best order)"]
