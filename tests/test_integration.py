"""End-to-end integration: pipelines that cross every layer.

These tests chain the subsystems the way a downstream user would: generate
or load data, plan, join, aggregate, and cross-check everything against
the RAM oracle and against each other.
"""

import pytest

from repro import (
    COUNT,
    Hypergraph,
    classify,
    mpc_join,
    mpc_join_aggregate,
    mpc_join_project,
    mpc_output_size,
)
from repro.core.planner import choose, price_fold_orders
from repro.data.generators import line_trap_instance, random_instance
from repro.io import read_instance_dir, write_instance_dir
from repro.query import catalog
from repro.ram.yannakakis import group_by_count, join_size, yannakakis


class TestCsvToJoinPipeline:
    def test_generate_save_load_join(self, tmp_path):
        inst = random_instance(catalog.fork_join(), 50, 6, seed=161)
        write_instance_dir(inst, tmp_path / "warehouse")
        loaded = read_instance_dir(tmp_path / "warehouse")
        assert classify(loaded.query).name == "ACYCLIC"
        res = mpc_join(loaded.query, loaded, p=8, validate=True)
        assert res.output_size == loaded.output_size()

    def test_aggregate_pipeline_after_reload(self, tmp_path):
        inst = random_instance(catalog.line3(), 60, 6, seed=162)
        write_instance_dir(inst, tmp_path / "d")
        loaded = read_instance_dir(tmp_path / "d")
        ann = loaded.with_uniform_annotations(COUNT)
        res = mpc_join_aggregate(loaded.query, {"B"}, ann, COUNT, p=4)
        expected = group_by_count(loaded, ("B",))
        assert dict(zip(res.relation.rows, res.relation.annotations)) == expected


class TestPlanThenExecute:
    def test_planner_feeds_yannakakis(self):
        inst = line_trap_instance(3, 1200, 12000)
        choice, _quality = price_fold_orders(inst.query, inst, 8)
        res = mpc_join(
            inst.query, inst, p=8, algorithm="yannakakis", plan=choice.order
        )
        assert res.row_set() == set(yannakakis(inst).rows)

    def test_diagnose_then_choose_algorithm(self):
        """Predicted load drives the dispatcher's decision: ``auto`` runs
        the priced candidate, never one that moves more than the class's
        paper algorithm."""
        inst = line_trap_instance(3, 900, 18000)
        assert classify(inst.query).name == "ACYCLIC"
        assert inst.output_size() > inst.input_size  # output-sensitive regime
        res = mpc_join(inst.query, inst, p=8)
        choice = choose(inst.query, inst, 8)
        assert res.meta["algorithm"] == choice.algorithm
        class_pick = mpc_join(inst.query, inst, p=8, algorithm="line3")
        assert res.report.load <= class_pick.report.load


class TestConsistencyMatrix:
    """The same question answered four independent ways must agree."""

    def test_out_size_four_ways(self):
        inst = random_instance(catalog.line3(), 80, 7, seed=163)
        # 1. RAM counting oracle.
        a = join_size(inst)
        # 2. MPC linear-load count (Corollary 4).
        b, _ = mpc_output_size(inst.query, inst, 8)
        # 3. Materializing the join.
        c = mpc_join(inst.query, inst, p=8).output_size
        # 4. Total COUNT aggregate (Section 6).
        d = mpc_join_aggregate(
            inst.query, set(), inst.with_uniform_annotations(COUNT), COUNT, p=8
        ).scalar
        assert a == b == c == d

    def test_projection_two_ways(self):
        inst = random_instance(catalog.line3(), 70, 6, seed=164)
        via_project = set(
            mpc_join_project(inst.query, {"A", "B"}, inst, p=4).relation.rows
        )
        full = yannakakis(inst)
        pos = full.positions(("A", "B"))
        via_join = {(r[pos[0]], r[pos[1]]) for r in full.rows}
        assert via_project == via_join

    def test_groupby_sums_to_total(self):
        inst = random_instance(catalog.fork_join(), 50, 5, seed=165)
        ann = inst.with_uniform_annotations(COUNT)
        per_b = mpc_join_aggregate(inst.query, {"B"}, ann, COUNT, p=4)
        total = mpc_join_aggregate(inst.query, set(), ann, COUNT, p=4)
        assert sum(per_b.relation.annotations) == total.scalar == join_size(inst)


class TestMixedWorkload:
    def test_multi_query_session_on_one_dataset(self):
        """Several queries over shared relations, as an application would."""
        from repro.data.instance import Instance
        from repro.data.relation import Relation

        users = Relation("users", ("city", "uid"), [
            (f"c{i % 4}", f"u{i}") for i in range(40)
        ])
        follows = Relation("follows", ("uid", "vid"), [
            (f"u{i}", f"u{(i * 7) % 40}") for i in range(40)
        ] + [(f"u{i}", f"u{(i + 1) % 40}") for i in range(40)])
        cities = Relation("cities2", ("city2", "vid"), [
            (f"c{i % 4}", f"u{i}") for i in range(40)
        ])

        q = Hypergraph(
            {"users": ("city", "uid"), "follows": ("uid", "vid"),
             "cities2": ("vid", "city2")},
            name="social",
        )
        inst = Instance(q, {"users": users, "follows": follows, "cities2": cities})

        # Full join.
        res = mpc_join(q, inst, p=8, validate=True)
        # Count per source city.
        ann = inst.with_uniform_annotations(COUNT)
        agg = mpc_join_aggregate(q, {"city"}, ann, COUNT, p=8)
        assert sum(agg.relation.annotations) == res.output_size
        # Distinct (city, city2) pairs — requires free-connex check.
        from repro.query.ghd import is_free_connex

        assert not is_free_connex(q, {"city", "city2"})  # matrix-product shape
        assert is_free_connex(q, {"city", "uid"})
