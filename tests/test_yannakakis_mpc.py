"""Tests for the MPC Yannakakis baseline and its fold orders."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.planner import enumerate_fold_orders
from repro.core.runner import mpc_join
from repro.core.yannakakis import component_orders, yannakakis_mpc
from repro.data.generators import (
    add_dangling,
    line_trap_instance,
    matching_instance,
    random_instance,
)
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.engine import Engine, parse_query
from repro.errors import QueryError
from repro.mpc import Cluster, distribute_instance
from repro.mpc.dangling import remove_dangling
from repro.query import catalog
from repro.query.hypergraph import Hypergraph
from repro.ram.joins import multi_join
from repro.semiring import COUNT
from tests.conftest import assert_matches_oracle, oracle_rows, run_mpc


class TestCorrectness:
    @pytest.mark.parametrize(
        "name", ["binary", "line3", "line4", "star3", "fork", "broom", "q1_tall_flat"]
    )
    def test_random_instances(self, name):
        q = catalog.CATALOG[name]
        inst = random_instance(q, 60, 6, seed=31)
        assert_matches_oracle(inst, yannakakis_mpc)

    def test_with_dangling_tuples(self):
        inst = add_dangling(matching_instance(catalog.line3(), 50), 20, seed=32)
        assert_matches_oracle(inst, yannakakis_mpc)

    def test_trap_instance(self):
        inst = line_trap_instance(3, 900, 9000)
        assert_matches_oracle(inst, yannakakis_mpc)


class TestPlans:
    def test_the_default_is_the_first_connected_order(self):
        """Without a plan the fold runs the order the chooser's
        enumeration lists first, and posts what that plan posts."""
        inst = random_instance(catalog.broom_join(), 60, 6, seed=7)
        joined = inst.query.reduce()[0]
        first = sum((orders[0] for orders in component_orders(joined, 1)), ())
        assert first == enumerate_fold_orders(inst.query)[0]
        default = run_mpc(inst, yannakakis_mpc, p=4)
        planned = run_mpc(inst, yannakakis_mpc, p=4, plan=first)
        assert default[0] == planned[0] == oracle_rows(inst)
        assert default[1].as_dict() == planned[1].as_dict()

    def test_default_plan_covers_all_relations(self):
        """Every enumerated order, the default first among them, names each
        relation that is joined exactly once."""
        q = catalog.broom_join()
        joined = sorted(q.reduce()[0].edge_names)
        orders = enumerate_fold_orders(q)
        assert orders
        for order in orders:
            assert sorted(order) == joined

    def test_left_deep_plan(self):
        """The orders of the line-3 join are its connected left-deep orders:
        each prefix shares a separator with the next relation."""
        (orders,) = component_orders(catalog.line3(), 64)
        assert orders == [
            ("R1", "R2", "R3"),
            ("R2", "R1", "R3"),
            ("R2", "R3", "R1"),
            ("R3", "R2", "R1"),
        ]

    def test_empty_plan_raises(self):
        inst = matching_instance(catalog.line3(), 5)
        cl = Cluster(2)
        g = cl.root_group()
        with pytest.raises(QueryError):
            yannakakis_mpc(g, inst.query, distribute_instance(inst, g), plan=())

    def test_plan_must_cover_query(self):
        inst = matching_instance(catalog.line3(), 5)
        from repro.mpc import Cluster, distribute_instance

        cl = Cluster(2)
        g = cl.root_group()
        with pytest.raises(QueryError):
            yannakakis_mpc(
                g, inst.query, distribute_instance(inst, g), plan=("R1", "R2")
            )

    def test_both_orders_agree(self):
        inst = line_trap_instance(3, 600, 3000)
        fwd = ("R1", "R2", "R3")
        bwd = ("R2", "R3", "R1")
        r1 = assert_matches_oracle(inst, yannakakis_mpc, plan=fwd)
        r2 = assert_matches_oracle(inst, yannakakis_mpc, plan=bwd)
        assert r1.load > 0 and r2.load > 0

    def test_join_order_matters_in_mpc(self):
        """Section 4.1 / Figure 3: on the trap instance the plan shuffling
        the OUT-sized intermediate pays substantially more."""
        inst = line_trap_instance(3, 1500, 45000, direction="forward")
        bad = assert_matches_oracle(
            inst, yannakakis_mpc, p=8, plan=("R1", "R2", "R3")
        )
        good = assert_matches_oracle(
            inst, yannakakis_mpc, p=8, plan=("R2", "R3", "R1")
        )
        assert bad.load > 2 * good.load

    def test_doubled_trap_defeats_both_orders(self):
        """Figure 3 (full): no single order is good on the doubled trap."""
        inst = line_trap_instance(3, 1500, 22000, doubled=True)
        loads = []
        for plan in (("R1", "R2", "R3"), ("R2", "R3", "R1")):
            rep = assert_matches_oracle(inst, yannakakis_mpc, p=8, plan=plan)
            loads.append(rep.load)
        out_over_p = 2 * 22000 / 8
        assert min(loads) > 0.5 * out_over_p


class TestReduceFirst:
    def test_skipping_reducer_still_correct_on_clean_input(self):
        inst = matching_instance(catalog.line3(), 30)
        assert_matches_oracle(inst, yannakakis_mpc, reduce_first=False)


#: Queries with contained relations (``query.reduce()`` drops some).
CONTAINED = {
    "equal": Hypergraph({"R": ("A", "B"), "S": ("A", "B")}, name="equal"),
    # R1 is the full join tree's hub (R0 - R1 - R2) and is dropped.
    "hub": Hypergraph({"R0": ("x0",), "R1": ("x0",), "R2": ("x1",)}, name="hub"),
    "chain": Hypergraph(
        {"A": ("A", "B", "C"), "B": ("A", "B"), "C": ("A",)}, name="chain"
    ),
    "broom": catalog.broom_join(),
    "q2": catalog.q2_r_hierarchical(),
}


def _contained_instance(name: str):
    return add_dangling(random_instance(CONTAINED[name], 40, 5, seed=3), 8, seed=5)


class TestContainedRelations:
    """After the full reducer a contained relation is a projection of its
    container: Yannakakis drops it and joins only the survivors."""

    @pytest.mark.parametrize("name", sorted(CONTAINED))
    def test_matches_oracle(self, name):
        inst = _contained_instance(name)
        assert inst.query.reduce()[1]
        assert_matches_oracle(inst, yannakakis_mpc, p=4)

    @pytest.mark.parametrize("name", sorted(CONTAINED))
    def test_engine_and_one_shot_auto_agree(self, name):
        inst = _contained_instance(name)
        query = inst.query
        text = f"Q({','.join(sorted(query.attributes))}) :- " + ", ".join(
            f"{n}({','.join(inst.relations[n].attrs)})" for n in query.edge_names
        )
        engine = Engine(p=4)
        for rel in inst.relations.values():
            engine.register(rel)
        served = engine.execute(text)
        parsed = parse_query(text)
        one_shot = mpc_join(parsed.query, engine.instance_for(parsed), 4, "auto")
        assert served.prepared.algorithm == one_shot.meta["algorithm"]
        assert served.report.as_dict() == one_shot.report.as_dict()
        assert set(served.rows()) == one_shot.row_set() == oracle_rows(inst)

    @pytest.mark.parametrize("name", sorted(CONTAINED))
    def test_a_plan_naming_contained_relations_equals_one_omitting_them(self, name):
        inst = _contained_instance(name)
        query = inst.query
        order = list(query.edge_names)
        dropped = query.reduce()[1]
        with_all = run_mpc(inst, yannakakis_mpc, p=4, plan=order)
        survivors = [n for n in order if n not in dropped]
        without = run_mpc(inst, yannakakis_mpc, p=4, plan=survivors)
        assert with_all[0] == without[0] == oracle_rows(inst)
        assert with_all[1].as_dict() == without[1].as_dict()

    def test_a_plan_must_still_name_every_survivor(self):
        inst = _contained_instance("q2")
        g = Cluster(2).root_group()
        with pytest.raises(QueryError):
            yannakakis_mpc(
                g, inst.query, distribute_instance(inst, g), plan=("R2", "R3")
            )

    def test_a_relation_with_payload_is_never_dropped(self):
        inst = _contained_instance("q2").with_uniform_annotations(COUNT)
        g = Cluster(4).root_group()
        res = yannakakis_mpc(g, inst.query, distribute_instance(inst, g, annotate=True))
        width = len(inst.query.attributes)
        assert res.attrs[width:] == tuple(sorted(f"#w:{n}" for n in inst.query.edge_names))
        assert {row[:width] for row in res.all_rows()} == oracle_rows(inst)

    @pytest.mark.parametrize("name", sorted(CONTAINED))
    def test_without_the_reducer_every_relation_is_joined(self, name):
        inst = _contained_instance(name).without_dangling()
        query = inst.query
        survivors = [n for n in query.edge_names if n not in query.reduce()[1]]
        g = Cluster(2).root_group()
        with pytest.raises(QueryError):
            yannakakis_mpc(
                g, query, distribute_instance(inst, g),
                plan=survivors, reduce_first=False,
            )
        _rows, report = run_mpc(inst, yannakakis_mpc, p=4, reduce_first=False)
        # Every relation enters exactly one join of its component's fold or
        # the one product of the component results.
        components = query.connected_components()
        steps = {label.split("/")[1] for label in report.by_label}
        joins = {step for step in steps if step.startswith("join")}
        assert len(joins) == len(query) - len(components)
        assert ("product" in steps) == (len(components) > 1)
        assert_matches_oracle(inst, yannakakis_mpc, p=4, reduce_first=False)

    def test_the_broom_ledger_shrinks(self):
        """The broom's R2(B,D) and R3(B) sit inside R0(A,B,D,G).  Pinned:
        dropping them after the reducer takes fewer steps and less load
        than the same reducer followed by folding them in."""
        inst = random_instance(catalog.broom_join(), 120, 6, seed=11)
        query = inst.query
        order = ["R0", "R2", "R3", "R1", "R4", "R5", "R6"]
        _rows, report = run_mpc(inst, yannakakis_mpc, p=8, plan=order)

        g = Cluster(8).root_group()
        reduced = remove_dangling(g, query, distribute_instance(inst, g), "yannakakis/reduce")
        joined = yannakakis_mpc(
            g, query, reduced, plan=order, reduce_first=False
        )
        assert set(joined.all_rows()) == oracle_rows(inst)
        folded = g.cluster.snapshot()
        assert (folded.steps, folded.load, folded.total) == (131, 686, 4865)
        assert (report.steps, report.load, report.total) == (99, 548, 4035)


#: Small acyclic shapes: connected, disconnected, and with contained
#: relations (``hub`` is both).
ORDER_SHAPES = [
    catalog.line3(),
    catalog.star_join(3),
    catalog.CATALOG["fork"],
    Hypergraph(
        {"R0": ("x0", "x1"), "R1": ("x1", "x2"), "R2": ("x3", "x4"), "R3": ("x4", "x5")},
        name="two-paths",
    ),
    CONTAINED["q2"],
    CONTAINED["hub"],
    CONTAINED["chain"],
]


@st.composite
def order_instances(draw):
    query = draw(st.sampled_from(ORDER_SHAPES))
    # Dense rows over a tiny domain: most draws keep results, and a
    # prefix that is not connected then joins to more than OUT rows.
    dom = draw(st.integers(1, 2))
    rels = {}
    for edge in query.edge_names:
        attrs = tuple(sorted(query.attrs_of(edge)))
        rows = draw(st.sets(st.tuples(*[st.integers(0, dom)] * len(attrs)), min_size=1, max_size=8))
        rels[edge] = Relation(edge, attrs, rows)
    return Instance(query, rels)


class TestOrderContract:
    """Every connected order the chooser's enumeration lists is a valid
    plan: it folds to the oracle's rows, and on the dangling-free instance
    no prefix of it joins to more than OUT rows (the Yannakakis bound's
    "every intermediate <= OUT", for the two-sweep reducer)."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(order_instances())
    def test_every_enumerated_order_folds_to_the_oracle(self, inst):
        expected = oracle_rows(inst)
        clean = inst.without_dangling()
        for order in enumerate_fold_orders(inst.query, limit=8):
            assert run_mpc(inst, yannakakis_mpc, p=3, plan=order)[0] == expected
            for k in range(1, len(order) + 1):
                prefix = multi_join(clean.relations[n] for n in order[:k])
                assert len(prefix) <= len(expected)
