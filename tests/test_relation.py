"""Tests for schema-carrying relations."""

import pytest

from repro.data.relation import Relation, project_row
from repro.errors import SchemaError
from repro.semiring import COUNT, MIN_TROPICAL


class TestConstruction:
    def test_basic(self):
        r = Relation("R", ("A", "B"), [(1, 2), (3, 4)])
        assert len(r) == 2
        assert (1, 2) in r

    def test_deduplication(self):
        r = Relation("R", ("A",), [(1,), (1,), (2,)])
        assert len(r) == 2

    def test_arity_mismatch_raises(self):
        with pytest.raises(SchemaError):
            Relation("R", ("A", "B"), [(1,)])

    def test_duplicate_attrs_raise(self):
        with pytest.raises(SchemaError):
            Relation("R", ("A", "A"), [])

    def test_annotations_need_semiring(self):
        with pytest.raises(SchemaError):
            Relation("R", ("A",), [(1,)], annotations=[1])

    def test_annotation_length_mismatch(self):
        with pytest.raises(SchemaError):
            Relation("R", ("A",), [(1,)], annotations=[1, 2], semiring=COUNT)

    def test_duplicate_rows_combine_annotations(self):
        r = Relation("R", ("A",), [(1,), (1,)], annotations=[2, 3], semiring=COUNT)
        assert len(r) == 1
        assert r.annotation_map()[(1,)] == 5

    def test_duplicate_rows_combine_with_min(self):
        r = Relation(
            "R", ("A",), [(1,), (1,)], annotations=[2.0, 3.0], semiring=MIN_TROPICAL
        )
        assert r.annotation_map()[(1,)] == 2.0


class TestOperations:
    def test_project(self):
        r = Relation("R", ("A", "B"), [(1, 2), (1, 3)])
        p = r.project(("A",))
        assert set(p.rows) == {(1,)}

    def test_project_annotated_combines(self):
        r = Relation(
            "R", ("A", "B"), [(1, 2), (1, 3)], annotations=[1, 1], semiring=COUNT
        )
        p = r.project(("A",))
        assert p.annotation_map()[(1,)] == 2

    def test_project_missing_attr_raises(self):
        with pytest.raises(SchemaError):
            Relation("R", ("A",), [(1,)]).project(("B",))

    def test_select(self):
        r = Relation("R", ("A", "B"), [(1, 2), (3, 4)])
        s = r.select(lambda t: t["A"] == 1)
        assert set(s.rows) == {(1, 2)}

    def test_restrict(self):
        r = Relation("R", ("A", "B"), [(1, 2), (3, 4), (5, 6)])
        s = r.restrict({(1,), (5,)}, ("A",))
        assert set(s.rows) == {(1, 2), (5, 6)}

    def test_reordered(self):
        r = Relation("R", ("A", "B"), [(1, 2)])
        s = r.reordered(("B", "A"))
        assert s.rows == ((2, 1),)
        assert s.attrs == ("B", "A")

    def test_reorder_wrong_attrs_raises(self):
        with pytest.raises(SchemaError):
            Relation("R", ("A",), [(1,)]).reordered(("B",))

    def test_equality_ignores_column_order(self):
        r1 = Relation("R", ("A", "B"), [(1, 2)])
        r2 = Relation("R", ("B", "A"), [(2, 1)])
        assert r1 == r2

    def test_degrees(self):
        r = Relation("R", ("A", "B"), [(1, 2), (1, 3), (4, 5)])
        assert r.degrees(("A",)) == {(1,): 2, (4,): 1}

    def test_column_codes_index_distinct_values_and_are_shared_by_renames(self):
        r = Relation("R", ("A", "B"), [("x", 2), ("y", 3), ("x", 5), (None, 6)])
        distinct, codes = r.column_codes(0)
        assert distinct == ["x", "y", None]
        assert [distinct[c] for c in codes] == [row[0] for row in r.rows]
        assert r.renamed("S", ("C", "D")).column_codes(0) is r.column_codes(0)

    def test_take_codes_its_own_rows_and_leaves_the_parent_cache(self):
        r = Relation("R", ("A", "B"), [("x", 2), ("y", 3), ("x", 5), (None, 6)])
        parent = r.column_codes(0)
        sub = r.take([1, 3])
        distinct, codes = sub.column_codes(0)
        assert len(codes) == len(sub) == 2
        assert [distinct[c] for c in codes] == ["y", None]
        assert r.column_codes(0) is parent and len(parent[1]) == 4
        # Coding the subset first must not leak into the parent either.
        fresh = Relation("R", r.attrs, r.rows)
        assert len(fresh.take([0]).column_codes(1)[1]) == 1
        assert len(fresh.column_codes(1)[1]) == 4

    def test_with_annotations_uniform(self):
        r = Relation("R", ("A",), [(1,), (2,)]).with_annotations(COUNT)
        assert r.annotated
        assert set(r.annotations) == {1}

    @pytest.mark.parametrize("semiring, default", [(COUNT, None), (MIN_TROPICAL, 4)])
    def test_with_annotations_equals_the_constructor(self, semiring, default):
        base = Relation("R", ("A", "B"), [(3, "x"), (1, None), (2, "x"), (True, 0)])
        for r in (base, base.with_annotations(COUNT, 7)):
            got = r.with_annotations(semiring, default)
            w = semiring.one if default is None else default
            want = Relation(r.name, r.attrs, r.rows, [w] * len(r), semiring)
            assert (got.name, got.attrs) == (want.name, want.attrs)
            assert got.rows == want.rows
            assert got.annotations == want.annotations
            assert got.semiring is want.semiring
            assert got == want and got.rows is r.rows

    def test_annotation_map_requires_annotations(self):
        with pytest.raises(SchemaError):
            Relation("R", ("A",), [(1,)]).annotation_map()

    def test_project_row(self):
        assert project_row((10, 20, 30), (2, 0)) == (30, 10)
