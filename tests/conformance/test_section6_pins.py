"""Section 6 ledger pins: the annotated-fold paths the golden grid misses.

``golden_ledgers.json`` covers two aggregate cells, both connected and
neither with a contained relation.  The cases below reach the rest of
the Section 6 code: the annotated reduce on a weighted contained
relation, ``LinearAggroYannakakis`` with a separator-free component
(non-empty and empty), a separator-free child under a real parent, the
group-by count on a star, and the count and ``acyclic`` join on a query
with an empty component.  Each case pins the full
:class:`~repro.mpc.cluster.LoadReport` and the per-part output rows
(annotation columns included) in ``section6_pins.json``; this test
demands equality.

Regenerate with
``PYTHONPATH=src python -m tests.conformance.test_section6_pins --write``
only when a change means to move one of these ledgers, and say which and
why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.core.aggregates import (
    aggregate_out,
    aggregate_total,
    annotated_reduce,
    mpc_count,
    mpc_group_by_count,
)
from repro.core.runner import mpc_join
from repro.data.generators import random_instance, star_instance
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.mpc import Cluster, distribute_instance
from repro.query import catalog
from repro.query.ghd import output_join_tree
from repro.query.hypergraph import Hypergraph
from repro.semiring import COUNT

PINS_PATH = Path(__file__).with_name("section6_pins.json")
P = 4


def _weighted(query: Hypergraph, rows: dict[str, list[tuple]]) -> Instance:
    """COUNT-annotated relations, row ``i`` weighted ``1 + i % 3``."""
    return Instance(query, {
        n: Relation(n, tuple(sorted(query.attrs_of(n))), rs,
                    annotations=[1 + i % 3 for i in range(len(rs))], semiring=COUNT)
        for n, rs in rows.items()
    })


def _random_weighted(query: Hypergraph, seed: int) -> Instance:
    inst = random_instance(query, 30, 4, seed=seed)
    return _weighted(query, {n: list(r.rows) for n, r in inst.relations.items()})


def _two_components(empty: bool) -> Instance:
    """``R1(A,B) ⋈ R2(B,C) × R3(X)``: R3 shares no attribute with y={A}."""
    q = Hypergraph({"R1": ("A", "B"), "R2": ("B", "C"), "R3": ("X",)})
    r1 = [(a, a % 3) for a in range(9)]
    r2 = [(b, c) for b in range(3) for c in range(2)]
    r3 = [] if empty else [(x,) for x in range(5)]
    return _weighted(q, {"R1": r1, "R2": r2, "R3": r3})


def _empty_component() -> Instance:
    """``R(A,B) ⋈ T(D)`` with ``T`` empty: the join is empty."""
    q = Hypergraph({"R": ("A", "B"), "T": ("D",)})
    return Instance(q, {
        "R": Relation("R", ("A", "B"), [(a, a % 4) for a in range(12)]),
        "T": Relation("T", ("D",), []),
    })


def _parts(rel) -> list:
    return [list(part) for part in rel.parts]


def _on_cluster(run: Callable[[Any], Any]) -> tuple[Any, dict]:
    cluster = Cluster(P, backend="serial")
    outputs = run(cluster.root_group())
    return outputs, cluster.snapshot().as_dict()


def _reduce_contained():
    inst = _random_weighted(catalog.simple_r_hierarchical(), seed=61)

    def run(g):
        rels = distribute_instance(inst, g, annotate=True)
        reduced, out = annotated_reduce(g, inst.query, rels, COUNT)
        return {n: _parts(out[n]) for n in reduced.edge_names}

    return _on_cluster(run)


def _aggro(inst: Instance, y: frozenset[str]):
    def run(g):
        rels = distribute_instance(inst, g, annotate=True)
        residual = aggregate_out(g, output_join_tree(inst.query, y), rels, COUNT)
        return {n: [list(r.attrs), _parts(r)] for n, r in sorted(residual.items())}

    return _on_cluster(run)


def _sepfree_under_real():
    """``A1(X)`` glues under the real ``R1``, not under the output edge."""
    q = Hypergraph({"A1": ("X",), "R1": ("A", "B"), "R2": ("B", "C")})
    inst = _weighted(q, {
        "A1": [(x,) for x in range(4)],
        "R1": [(a, a % 3) for a in range(9)],
        "R2": [(b, c) for b in range(3) for c in range(2)],
    })
    tree = output_join_tree(q, frozenset({"A"})).tree
    assert tree.parent["A1"] == "R1"
    return _aggro(inst, frozenset({"A"}))


def _total_sepfree():
    inst = _two_components(empty=False)
    return _on_cluster(lambda g: aggregate_total(
        g, inst.query, distribute_instance(inst, g, annotate=True), COUNT
    ))


def _count_sepfree():
    q = Hypergraph({"R": ("A", "B"), "T": ("D",)})
    inst = Instance(q, {
        "R": Relation("R", ("A", "B"), [(a, a % 4) for a in range(12)]),
        "T": Relation("T", ("D",), [(d,) for d in range(3)]),
    })
    return _on_cluster(lambda g: mpc_count(g, q, distribute_instance(inst, g)))


def _groupby_star():
    inst = star_instance(3, 5, 3)

    def run(g):
        return mpc_group_by_count(
            g, inst.query, distribute_instance(inst, g), ("Z",)
        )

    return _on_cluster(run)


def _count_empty_component():
    inst = _empty_component()
    return _on_cluster(lambda g: mpc_count(g, inst.query, distribute_instance(inst, g)))


def _acyclic_empty_component():
    inst = _empty_component()
    res = mpc_join(inst.query, inst, P, algorithm="acyclic", backend="serial")
    return _parts(res.relation), res.report.as_dict()


CASES: dict[str, Callable[[], tuple[Any, dict]]] = {
    "reduce/weighted-contained": _reduce_contained,
    "aggro/component": lambda: _aggro(_two_components(False), frozenset({"A"})),
    "aggro/empty-component": lambda: _aggro(_two_components(True), frozenset({"A"})),
    "aggro/sepfree-under-real": _sepfree_under_real,
    "total/sepfree": _total_sepfree,
    "count/sepfree": _count_sepfree,
    "groupby/star": _groupby_star,
    "count/empty-component": _count_empty_component,
    "acyclic/empty-component": _acyclic_empty_component,
}


def _freeze(name: str) -> dict:
    outputs, ledger = CASES[name]()
    # Through JSON so tuples/lists compare the way the stored file reads.
    return json.loads(json.dumps({"ledger": ledger, "outputs": outputs}))


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_the_cases(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_ledger_and_outputs_match_pin(name, pins):
    got = _freeze(name)
    assert got["outputs"] == pins[name]["outputs"], f"outputs moved on {name}"
    assert got["ledger"] == pins[name]["ledger"], f"ledger moved on {name}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.conformance.test_section6_pins --write")
    frozen = {name: _freeze(name) for name in sorted(CASES)}
    PINS_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(frozen)} pins to {PINS_PATH}")
