"""Disconnected acyclic queries: each component folded on its own, then one
product of the component results (:func:`repro.core.yannakakis.yannakakis_mpc`).

Hypothesis draws queries of two or three components, each a grown acyclic
query over its own attributes, with instances where a component has one
row, no rows, many rows or a few random ones.  Every run must:

* emit the RAM Yannakakis rows;
* post, served cold by the engine, the ledger of a one-shot ``mpc_join``
  with the same algorithm and plan;
* on the broadcast route of :func:`repro.core.hypercube.hypercube_cartesian`,
  post to every server exactly the replicated rows it does not hold, which
  is what ``_Pricer`` predicts for that step, and take the grid route
  whenever two components have large results.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core import yannakakis as yannakakis_module
from repro.core.hypercube import optimal_cartesian_shares
from repro.core.planner import Statistics, _Pricer, _Units, price_fold_orders
from repro.core.runner import mpc_join
from repro.core.yannakakis import yannakakis_mpc
from repro.data.generators import random_instance
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.engine import Engine, parse_query
from repro.mpc import Cluster, distribute_instance
from repro.query import catalog
from repro.query.hypergraph import Hypergraph
from tests.conftest import oracle_rows
from tests.test_random_queries import acyclic_queries

P = 4
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
#: A component's rows: one row, none, many (a large result), or random.
KINDS = ("one-row", "empty", "large", "random")
LARGE = 24


@st.composite
def component(draw, tag: str, kind: str) -> tuple[dict, dict]:
    """One component's edges and relations, its names prefixed by ``tag``
    (a large component is one relation of distinct rows)."""
    grown = draw(acyclic_queries())
    # A grown edge may share nothing with its parent: keep R0's component.
    names = [n for n in grown.edge_names if n in next(
        c for c in grown.connected_components() if "R0" in c
    )]
    if kind in ("one-row", "large"):
        names = ["R0"]
    edges = {
        f"{tag}{n}": tuple(f"{tag.lower()}{a}" for a in sorted(grown.attrs_of(n)))
        for n in names
    }
    rels = {}
    empty = draw(st.sampled_from(sorted(edges)))
    for name, attrs in edges.items():
        if kind == "one-row":
            rows = [tuple(range(len(attrs)))]
        elif kind == "large":
            n_rows = draw(st.integers(LARGE, 2 * LARGE))
            rows = [(i,) + (i % 3,) * (len(attrs) - 1) for i in range(n_rows)]
        elif kind == "empty" and name == empty:
            rows = []
        else:
            # Two values per attribute: most random components join to
            # something.
            rows = draw(st.lists(
                st.tuples(*(st.integers(0, 1) for _ in attrs)), min_size=1, max_size=8
            ))
        rels[name] = Relation(name, attrs, rows)
    return edges, rels


@st.composite
def disconnected_instances(draw) -> Instance:
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=2, max_size=3))
    edges: dict = {}
    rels: dict = {}
    for i, kind in enumerate(kinds):
        e, r = draw(component(f"C{i}", kind))
        edges.update(e)
        rels.update(r)
    query = Hypergraph(edges, name="disconnected")
    assert len(query.connected_components()) == len(kinds)
    return Instance(query, rels)


def _text(inst: Instance) -> str:
    query = inst.query
    head = ",".join(sorted(query.attributes))
    return f"Q({head}) :- " + ", ".join(
        f"{n}({','.join(inst.relations[n].attrs)})" for n in query.edge_names
    )


def _product_calls(monkeypatch) -> list:
    """Record every product ``yannakakis_mpc`` takes: its sides' part sizes
    and what each server received on its broadcast step."""
    calls: list = []
    real = yannakakis_module.hypercube_cartesian

    def recording(group, rels, label, name="product"):
        call = {"parts": [[len(part) for part in r.parts] for r in rels], "bcast": []}
        calls.append(call)
        tally = group.cluster.tally_members

        def watch(members, counts, step):
            if step == f"{label}/bcast":
                call["bcast"].append(list(counts))
            return tally(members, counts, step)

        group.cluster.tally_members = watch
        try:
            return real(group, rels, label, name)
        finally:
            del group.cluster.tally_members

    monkeypatch.setattr(yannakakis_module, "hypercube_cartesian", recording)
    return calls


def _expected_bcast(parts: list[list[int]]) -> list[int] | None:
    """Per server, the replicated rows it lacks; ``None`` on the grid route."""
    sizes = [sum(side) for side in parts]
    if not all(sizes):
        return None
    shares = optimal_cartesian_shares(sizes, P)
    spread = [i for i, share in enumerate(shares) if share > 1]
    if len(spread) > 1:
        return None
    stay = spread[0] if spread else max(range(len(sizes)), key=sizes.__getitem__)
    return [
        sum(sizes[i] - parts[i][j] for i in range(len(parts)) if i != stay)
        for j in range(P)
    ]


def _predicted_product(inst: Instance) -> int:
    """What ``_Pricer`` prices the product step at, from the full
    reducer's survivors of each component of the reduced query."""
    stats = Statistics(inst.query, inst)
    tree, reduced = stats.fold_tree(), stats.reduced()
    sizes = [
        stats.join_size(tree, {n: reduced[n] for n in sorted(comp)})
        for comp in tree.jt.query.connected_components()
    ]
    units = _Units(P)
    _Pricer.cartesian(units, sizes)
    return int(round(units.total[0]))


class TestDisconnectedQueries:
    @SETTINGS
    @given(inst=disconnected_instances(), algorithm=st.sampled_from(["yannakakis", "auto"]))
    def test_components_then_one_product(self, inst, algorithm):
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _product_calls(monkeypatch)
            engine = Engine(p=P, backend="serial", result_cache=False)
            for rel in inst.relations.values():
                engine.register(rel)
            text = _text(inst)
            served = engine.execute(text, algorithm=algorithm)
        parsed = parse_query(text)
        entry = served.prepared
        one_shot = mpc_join(
            parsed.query, engine.instance_for(parsed), P, entry.algorithm, plan=entry.plan_order
        )
        assert set(served.rows()) == one_shot.row_set() == oracle_rows(inst)
        assert served.report.as_dict() == one_shot.report.as_dict()
        if entry.algorithm != "yannakakis":
            return
        # One product of every component's result (empty, and posting
        # nothing, when some component emits nothing).
        assert len(calls) == 1
        (call,) = calls
        assert len(call["parts"]) == len(inst.query.reduce()[0].connected_components())
        expected = _expected_bcast(call["parts"])
        big, second = sorted(map(sum, call["parts"]))[::-1][:2]
        if LARGE <= second and big < 2 * second:
            assert expected is None  # two large components: the grid route
        if expected is None:
            event("grid" if all(map(sum, call["parts"])) else "empty product")
            assert call["bcast"] == []
            return
        event("broadcast")
        assert call["bcast"] == [expected]
        assert sum(expected) == served.report.by_label["yannakakis/product/bcast"]
        assert sum(expected) == _predicted_product(inst)


class TestProductRoutes:
    """The two routes of ``hypercube_cartesian`` on fixed instances."""

    def _run(self, inst: Instance):
        cluster = Cluster(P)
        g = cluster.root_group()
        res = yannakakis_mpc(g, inst.query, distribute_instance(inst, g))
        assert set(res.all_rows()) == oracle_rows(inst)
        return cluster.snapshot()

    def test_a_one_row_component_is_broadcast(self):
        inst = random_instance(catalog.broom_join(), 60, 4, seed=5)
        inst.relations["R6"] = inst.relations["R6"].take([0])
        report = self._run(inst)
        product = {k: v for k, v in report.by_label.items() if "/product/" in k}
        # R6 has one row: every server but its holder receives it.
        assert product == {"yannakakis/product/bcast": P - 1}
        assert not any("/cart" in label for label in report.by_label)

    def test_two_large_components_take_the_grid(self):
        query = Hypergraph({"R": ("a",), "S": ("b",)}, name="grid")
        inst = Instance(query, {
            "R": Relation("R", ("a",), [(i,) for i in range(40)]),
            "S": Relation("S", ("b",), [(i,) for i in range(40)]),
        })
        report = self._run(inst)
        labels = {k for k in report.by_label if "/product/" in k}
        assert "yannakakis/product/shuffle" in labels
        assert "yannakakis/product/bcast" not in labels
        assert {k.split("/")[2] for k in labels} == {"chunk0", "chunk1", "shuffle"}

    @pytest.mark.parametrize("dom", [20, 60, 1000])
    def test_the_pricer_prices_a_cartesian_yannakakis(self, dom):
        """Two 40-row relations on disjoint attributes at p = 4 take the
        grid.  Its units are modelled over even parts, not placed, so the
        prediction sits near, not on, the measured total; the reducer
        across the empty separator moves nothing and is priced at 0."""
        query = Hypergraph({"R0": ("x0",), "R2": ("x1",)}, name="cart")
        inst = random_instance(query, 40, dom, seed=3)
        fold = price_fold_orders(query, inst)[0]
        report = mpc_join(query, inst, P, "yannakakis", plan=fold.order).report
        assert not any("/reduce/" in label for label in report.by_label)
        pricer = _Pricer(Statistics(query, inst), P)
        pricer.yannakakis(fold.order)
        assert abs(pricer.units - report.total) <= 0.15 * report.total
