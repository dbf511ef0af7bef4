"""Tests for the distributed full reducer and the reduce procedure."""

from repro.data.generators import add_dangling, matching_instance, random_instance
from repro.mpc import Cluster, distribute_instance
from repro.mpc.dangling import reduce_instance, remove_dangling
from repro.semiring import COUNT
from repro.query import catalog


class TestRemoveDangling:
    def test_clean_instance_untouched(self):
        inst = matching_instance(catalog.line3(), 20)
        cl = Cluster(4)
        g = cl.root_group()
        rels = distribute_instance(inst, g)
        out = remove_dangling(g, inst.query, rels)
        for n in inst.relations:
            assert set(out[n].all_rows()) == set(inst[n].rows)

    def test_matches_ram_reducer(self):
        inst = add_dangling(random_instance(catalog.fork_join(), 60, 6, seed=3), 15, seed=4)
        expected = inst.without_dangling()
        cl = Cluster(4)
        g = cl.root_group()
        out = remove_dangling(g, inst.query, distribute_instance(inst, g))
        for n in inst.relations:
            assert set(out[n].all_rows()) == set(expected[n].rows), n

    def test_linear_load(self):
        inst = add_dangling(matching_instance(catalog.line3(), 2000), 500, seed=5)
        p = 8
        cl = Cluster(p)
        g = cl.root_group()
        remove_dangling(g, inst.query, distribute_instance(inst, g))
        n = inst.input_size
        # Two sweeps of semi-joins: a small constant times IN/p.
        assert cl.snapshot().load <= 20 * n // p + 50 * p

    def test_empty_relation_propagates(self):
        from repro.data.instance import Instance
        from repro.data.relation import Relation

        q = catalog.line3()
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), [(1, 2)]),
                "R2": Relation("R2", ("B", "C"), []),
                "R3": Relation("R3", ("C", "D"), [(3, 4)]),
            },
        )
        cl = Cluster(2)
        g = cl.root_group()
        out = remove_dangling(g, q, distribute_instance(inst, g))
        assert all(out[n].total_size() == 0 for n in out)


class TestReduceInstance:
    def test_contained_relations_dropped(self):
        inst = matching_instance(catalog.simple_r_hierarchical(), 10)
        cl = Cluster(4)
        g = cl.root_group()
        rels = distribute_instance(inst, g)
        rels = remove_dangling(g, inst.query, rels)
        reduced_q, reduced = reduce_instance(inst.query, rels)
        assert set(reduced_q.edge_names) == {"R2"}
        assert set(reduced) == {"R2"}
        assert reduced["R2"].total_size() == 10

    def test_join_preserved_after_reduce(self):
        """Joining only the reduced relations reproduces the full join."""
        from repro.ram.joins import multi_join
        from repro.ram.yannakakis import yannakakis

        inst = random_instance(catalog.q2_r_hierarchical(), 40, 4, seed=6).without_dangling()
        cl = Cluster(4)
        g = cl.root_group()
        rels = distribute_instance(inst, g)
        reduced_q, reduced = reduce_instance(inst.query, rels)
        kept = multi_join(
            [reduced[n].to_relation() for n in reduced_q.edge_names]
        )
        expected = yannakakis(inst)
        got = {
            tuple(row[kept.positions(expected.attrs)[i]] for i in range(len(expected.attrs)))
            for row in kept.rows
        }
        assert got == set(expected.rows)

    def test_moves_nothing_and_keeps_payload(self):
        """The reduce step only drops: a contained relation carrying
        payload columns stays, and no step is posted."""
        inst = matching_instance(catalog.simple_r_hierarchical(), 10)
        cl = Cluster(4)
        g = cl.root_group()
        rels = distribute_instance(inst.with_uniform_annotations(COUNT), g, annotate=True)
        reduced_q, reduced = reduce_instance(inst.query, rels)
        assert set(reduced_q.edge_names) == set(reduced) == set(inst.query.edge_names)
        assert cl.snapshot().steps == 0

    def test_noop_on_reduced_query(self):
        inst = matching_instance(catalog.line3(), 5)
        cl = Cluster(2)
        g = cl.root_group()
        reduced_q, reduced = reduce_instance(inst.query, distribute_instance(inst, g))
        assert set(reduced_q.edge_names) == {"R1", "R2", "R3"}
