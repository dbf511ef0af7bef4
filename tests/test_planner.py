"""Tests for the MPC-aware Yannakakis planner."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.aggregates import mpc_count
from repro.core.planner import (
    Statistics,
    _prefix_sizer,
    enumerate_fold_orders,
    price_fold_orders,
)
from repro.core.yannakakis import yannakakis_mpc
from repro.data.generators import (
    add_dangling,
    line_trap_instance,
    matching_instance,
    random_instance,
)
from repro.errors import QueryError
from repro.mpc import Cluster, distribute_instance
from repro.mpc.dangling import remove_dangling
from repro.mpc.group import Group
from repro.query import catalog
from repro.query.hypergraph import Hypergraph, join_tree
from repro.ram.yannakakis import join_size
from tests.conftest import assert_matches_oracle, oracle_rows
from tests.test_random_queries import SETTINGS, acyclic_queries, instance_for


class TestEnumeration:
    def test_line3_orders_are_connected(self):
        orders = enumerate_fold_orders(catalog.line3())
        q = catalog.line3()
        for order in orders:
            for k in range(2, len(order) + 1):
                prefix_attrs = [q.attrs_of(n) for n in order[:k]]
                # Each newly added relation shares an attribute with the prefix.
                joined = set().union(*prefix_attrs[:-1])
                assert joined & prefix_attrs[-1], order

    def test_line3_has_four_orders(self):
        # R1->R2->R3, R2->{R1,R3} x2, R3->R2->R1.
        orders = enumerate_fold_orders(catalog.line3())
        assert len(orders) == 4

    def test_every_order_is_a_permutation(self):
        q = catalog.fork_join()
        for order in enumerate_fold_orders(q):
            assert sorted(order) == sorted(q.edge_names)

    def test_components_are_ordered_one_after_another(self):
        """The broom's R6(H) shares no attribute with the rest: it is a
        component of its own, after the connected orders of R0, R1, R4, R5
        (R2 and R3 are contained in R0), and no prefix crosses into it."""
        q = catalog.broom_join()
        orders = enumerate_fold_orders(q)
        assert len(orders) == 8
        for order in orders:
            assert order[-1] == "R6"
            for k in range(2, 5):
                joined = set().union(*(q.attrs_of(n) for n in order[:k - 1]))
                assert joined & q.attrs_of(order[k - 1]), order

    def test_limit_respected(self):
        orders = enumerate_fold_orders(catalog.broom_join(), limit=3)
        assert len(orders) <= 3


class TestBestPlan:
    def test_picks_the_good_direction_on_trap(self):
        """Figure 3: the planner must avoid the OUT-sized intermediate."""
        inst = line_trap_instance(3, 1500, 45000, direction="forward")
        choice, _quality = price_fold_orders(inst.query, inst, 8)
        # Forward trap: R1 x R2 is OUT-sized; the plan must not start there.
        assert set(choice.order[:2]) != {"R1", "R2"}
        assert choice.max_intermediate < 0.2 * inst.output_size()

    def test_planned_run_beats_bad_plan(self):
        inst = line_trap_instance(3, 1500, 45000, direction="forward")
        choice, _quality = price_fold_orders(inst.query, inst, 8)

        good = assert_matches_oracle(
            inst, yannakakis_mpc, p=8, plan=choice.order
        )
        bad = assert_matches_oracle(
            inst, yannakakis_mpc, p=8, plan=("R1", "R2", "R3")
        )
        assert good.load < 0.6 * bad.load

    def test_cyclic_rejected(self):
        inst = random_instance(catalog.triangle(), 10, 3, seed=1)
        with pytest.raises(QueryError):
            price_fold_orders(inst.query, inst, 8)

    def test_correctness_of_chosen_plan(self):
        inst = random_instance(catalog.broom_join(), 40, 5, seed=123)
        choice, _quality = price_fold_orders(inst.query, inst, 8)
        cl = Cluster(4)
        g = cl.root_group()
        rels = distribute_instance(inst, g)
        res = yannakakis_mpc(g, inst.query, rels, plan=choice.order)
        assert set(res.all_rows()) == oracle_rows(inst)

    def test_planning_cost_is_linear(self, monkeypatch):
        """Linear in RAM, and nothing else: pricing performs no exchange
        and constructs no ``Cluster``."""
        def refuse(*_args, **_kwargs):
            raise AssertionError("pricing touched the simulated cluster")

        monkeypatch.setattr(Cluster, "__init__", refuse)
        monkeypatch.setattr(Group, "exchange", refuse)
        inst = line_trap_instance(3, 4000, 40000)
        choice, quality = price_fold_orders(inst.query, inst, 8)
        assert quality["best"] == choice.max_intermediate == max(choice.intermediates)

    def test_two_relations_price_nothing(self, monkeypatch):
        """No intermediate exists and there is no order to choose, so the
        instance is not even reduced, nor counted, nor walked."""
        from repro.core import planner
        from repro.data.instance import Instance

        monkeypatch.setattr(Instance, "without_dangling", None)
        monkeypatch.setattr(planner, "Statistics", None)
        inst = random_instance(catalog.binary_join(), 30, 5, seed=2)
        choice, quality = price_fold_orders(inst.query, inst, 8)
        assert choice.order == ("R1", "R2")
        assert (choice.max_intermediate, choice.intermediates) == (0, ())
        assert quality == {"best": 0, "worst": 0, "orders": 2}


class TestPlanQuality:
    def test_trap_gap_detected(self):
        inst = line_trap_instance(3, 1500, 45000, direction="forward")
        _choice, q = price_fold_orders(inst.query, inst, 8)
        assert q["worst"] > 5 * q["best"]

    def test_doubled_trap_all_orders_bad(self):
        """Figure 3 (full): even the best order has an OUT-scale intermediate."""
        inst = line_trap_instance(3, 1500, 22000, doubled=True)
        _choice, q = price_fold_orders(inst.query, inst, 8)
        assert q["best"] > 0.4 * inst.output_size()

    def test_uniform_instance_orders_similar(self):
        inst = matching_instance(catalog.line3(), 100)
        _choice, q = price_fold_orders(inst.query, inst, 8)
        assert q["worst"] == q["best"]


def _assert_prefix_sizes_match_corollary4(inst, limit=64, p=4):
    """Every prefix the pricer sizes, against the two independent counts:
    ``mpc_count`` over the ``remove_dangling``-reduced prefix (what pricing
    used to run on a scratch cluster) and RAM ``join_size``."""
    query = inst.query
    size = _prefix_sizer(Statistics(query, inst))
    g = Cluster(p).root_group()
    reduced = remove_dangling(g, query, distribute_instance(inst, g), "oracle/reduce")
    reduced_ram = inst.without_dangling()
    prefixes = {
        frozenset(order[:k])
        for order in enumerate_fold_orders(query, limit=limit)
        for k in range(1, len(order) + 1)
    }
    for prefix in sorted(prefixes, key=sorted):
        sub = Hypergraph({n: query.attrs_of(n) for n in prefix}, name="prefix")
        counted = mpc_count(g, sub, {n: reduced[n] for n in prefix}, "oracle/count")
        assert size(prefix) == counted == join_size(reduced_ram.subset(prefix)), prefix
    # The prefixes span the reduced query: its survivors join to OUT.
    assert size(frozenset(query.reduce()[0].edge_names)) == join_size(inst)


class TestCorollary4Oracle:
    @pytest.mark.parametrize("make", [
        catalog.line3, catalog.fork_join, catalog.broom_join,
        catalog.q2_r_hierarchical, lambda: catalog.star_join(3),
    ])
    def test_seeded_instances(self, make):
        q = make()
        inst = add_dangling(random_instance(q, 60, 6, seed=41), 15, seed=43)
        _assert_prefix_sizes_match_corollary4(inst)

    def test_empty_separator_in_the_join_tree(self):
        """The broom's R6(H) shares no attribute: its tree edge carries an
        empty separator, and only sizes multiply across it."""
        q = catalog.broom_join()
        tree = join_tree(q)
        assert any(par is not None and not tree.separator(n) for n, par in tree.parent.items())
        inst = random_instance(q, 25, 4, seed=7)
        _assert_prefix_sizes_match_corollary4(inst)
        empty_side = add_dangling(inst, 5, seed=1)
        empty_side.relations["R6"] = empty_side.relations["R6"].take(())
        _assert_prefix_sizes_match_corollary4(empty_side)

    @SETTINGS
    @given(st.data())
    def test_random_acyclic_queries(self, data):
        q = data.draw(acyclic_queries())
        inst = data.draw(instance_for(q))
        _assert_prefix_sizes_match_corollary4(inst, limit=6)
