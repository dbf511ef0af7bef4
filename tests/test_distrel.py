"""Tests for distributed relations and the common result plumbing."""

import pytest

from repro.core.common import (
    align_to_schema,
    canonical_attrs,
    concat_distrels,
    local_hash_join,
    local_tree_join,
)
from repro.data.columns import ColumnBlock
from repro.data.generators import matching_instance, random_instance
from repro.data.relation import Relation
from repro.errors import MPCError, SchemaError
from repro.mpc import Cluster, DistRelation, distribute_instance, distribute_relation
from repro.query import catalog
from repro.semiring import COUNT


class TestDistRelation:
    def test_distribution_is_even(self):
        rel = Relation("R", ("A",), [(i,) for i in range(100)])
        cl = Cluster(8)
        d = distribute_relation(rel, cl.root_group())
        sizes = [len(p) for p in d.parts]
        assert max(sizes) - min(sizes) <= 1
        assert d.total_size() == 100

    def test_initial_distribution_free(self):
        rel = Relation("R", ("A",), [(i,) for i in range(100)])
        cl = Cluster(8)
        distribute_relation(rel, cl.root_group())
        assert cl.snapshot().load == 0

    def test_annotate_appends_weight_column(self):
        rel = Relation("R", ("A",), [(1,)], annotations=[3], semiring=COUNT)
        cl = Cluster(2)
        d = distribute_relation(rel, cl.root_group(), annotate=True)
        assert d.attrs == ("A", "#w:R")
        assert d.all_rows() == [(1, 3)]

    def test_positions_missing_raises(self):
        d = DistRelation("R", ("A",), [[]])
        with pytest.raises(SchemaError):
            d.positions(("Z",))

    def test_to_relation_dedupes(self):
        d = DistRelation("R", ("A",), [[(1,)], [(1,)]])
        assert len(d.to_relation()) == 1


class TestCommonHelpers:
    def test_canonical_attrs_order(self):
        got = canonical_attrs([("B", "#w:R2"), ("A", "#w:R1")])
        assert got == ("A", "B", "#w:R1", "#w:R2")

    def test_align_to_schema(self):
        block = ColumnBlock.from_rows([(1, 2)], 2)
        assert align_to_schema(block, ("A", "B"), ("B", "A")).rows() == [(2, 1)]
        assert align_to_schema(block, ("A", "B"), ("A", "B")) is block

    def test_local_hash_join(self):
        attrs, joined = local_hash_join(
            ("A", "B"), ColumnBlock.from_rows([(1, 2), (3, 4)], 2),
            ("B", "C"), ColumnBlock.from_rows([(2, 9)], 2),
        )
        assert attrs == ("A", "B", "C")
        assert joined.rows() == [(1, 2, 9)]

    def test_local_tree_join_matches_oracle(self):
        inst = random_instance(catalog.fork_join(), 25, 4, seed=111)
        from repro.ram.yannakakis import yannakakis

        schemas = {n: inst[n].attrs for n in inst.query.edge_names}
        rows = {n: list(inst[n].rows) for n in inst.query.edge_names}
        attrs, joined = local_tree_join(inst.query, schemas, rows)
        expected = yannakakis(inst)
        assert attrs == expected.attrs
        assert set(joined.rows()) == set(expected.rows)

    def test_concat_distrels_aligns_schemas(self):
        cl = Cluster(2)
        g = cl.root_group()
        a = DistRelation("a", ("A", "B"), [[(1, 2)], []])
        b = DistRelation("b", ("B", "A"), [[], [(9, 8)]])
        merged = concat_distrels("m", g, [a, b])
        assert merged.attrs == ("A", "B")
        assert set(merged.all_rows()) == {(1, 2), (8, 9)}

    def test_concat_empty_rejected(self):
        cl = Cluster(2)
        with pytest.raises(MPCError):
            concat_distrels("m", cl.root_group(), [])


class TestDistributeInstance:
    def test_all_relations_distributed(self):
        inst = matching_instance(catalog.line3(), 30)
        cl = Cluster(4)
        rels = distribute_instance(inst, cl.root_group())
        assert set(rels) == {"R1", "R2", "R3"}
        assert all(r.total_size() == 30 for r in rels.values())
