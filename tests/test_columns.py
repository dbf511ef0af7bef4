"""The columnar data plane: encode/decode round-trips, wire format, parity.

Covers the load-bearing invariants of ``repro/data/columns.py`` and its
integration into :class:`~repro.data.relation.Relation`,
:class:`~repro.mpc.distrel.DistRelation`, the substrate's key ranking,
and the multiprocess backend's wire format:

* exact round-trip for mixed-type columns (types and values preserved —
  the bool/int/float distinction especially),
* row-path vs columnar-path :class:`Relation` construction parity
  (equality, dedup, annotation combining),
* the owned-parts fast path and lazy row materialization of
  :class:`DistRelation`,
* wire blobs smaller than pickled tuple lists, decoding to identical rows,
* identical outputs and ledgers with columnar storage in the loop.
"""

import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.columns import (
    Column,
    ColumnBlock,
    _narrow_codes,
    encode_column,
    pack_blob,
    unpack_blob,
)
from repro.data.relation import Relation
from repro.mpc import Cluster, DistRelation, distribute_relation
from repro.mpc.backends import MultiprocessBackend
from repro.mpc.primitives import count_by_key, semi_join
from repro.mpc.substrate import cache_disabled, orderable
from repro.semiring import COUNT


def same_values(decoded, original):
    """Equality *and* type identity per element (1 vs True vs 1.0 differ)."""
    assert len(decoded) == len(original)
    for d, o in zip(decoded, original):
        assert type(d) is type(o), (d, o)
        assert d == o or (d != d and o != o), (d, o)  # NaN-tolerant


# A generator of messy column values: ints (small/huge), floats, strings,
# bools, None, bytes, nested tuples, and unorderable-but-hashable objects.
mixed_value = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=6),
    st.tuples(st.integers(-5, 5), st.text(max_size=3)),
    st.frozensets(st.integers(0, 3), max_size=2),
)


class TestColumnRoundTrip:
    @given(st.lists(mixed_value, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_encode_decode_exact(self, vals):
        col = encode_column(vals)
        same_values(col.values(), vals)

    @given(st.lists(st.integers(min_value=-(2**80), max_value=2**80)))
    @settings(max_examples=60, deadline=None)
    def test_huge_ints_fall_back_to_dictionary(self, vals):
        col = encode_column(vals)
        same_values(col.values(), vals)

    def test_unhashable_values_use_object_column(self):
        vals = [[1, 2], [3], [1, 2]]
        col = encode_column(vals)
        assert col.kind == "o"
        assert col.values() == vals
        # Original objects, not copies.
        assert col.values()[0] is vals[0]

    def test_int_column_uses_typed_array(self):
        col = encode_column(list(range(100)))
        assert col.kind == "i"
        assert col.data.typecode == "q"

    @given(st.lists(st.tuples(mixed_value, mixed_value), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_block_rows_round_trip(self, rows):
        block = ColumnBlock.from_rows(rows, 2)
        got = block.rows()
        assert len(got) == len(rows)
        for g, r in zip(got, rows):
            same_values(list(g), list(r))

    def test_zero_arity_block_keeps_cardinality(self):
        block = ColumnBlock.from_rows([(), (), ()], 0)
        assert block.n == 3
        assert block.rows() == [(), (), ()]
        assert block.take([1]).rows() == [()]


def same_rows(got, want):
    """Row lists equal with exact types per cell (see ``same_values``)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        same_values(list(g), list(w))


# Cells that stress the kernels: the dict-equal triple 1 / True / 1.0 in
# one column, NaN, and unhashable values (which force an "o" column).
NAN = float("nan")
kernel_value = st.one_of(
    mixed_value,
    st.sampled_from([1, True, 1.0, 0, False, 0.0, NAN]),
    st.lists(st.integers(0, 3), max_size=2),
)
int_rows = st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=12)
any_rows = st.lists(st.tuples(kernel_value, kernel_value), max_size=12)


@st.composite
def rows_and_indices(draw):
    rows = draw(any_rows)
    idx = draw(st.lists(st.integers(0, len(rows) - 1), max_size=30)) if rows else []
    return rows, idx


class TestKernels:
    """``take`` / ``select`` / ``concat`` against the row-list oracle."""

    @given(rows_and_indices())
    @settings(max_examples=150, deadline=None)
    def test_take_equals_row_gather(self, case):
        rows, idx = case
        got = ColumnBlock.from_rows(rows, 2).take(idx)
        assert got.n == len(idx)
        same_rows(got.rows(), [rows[i] for i in idx])

    def test_take_shares_the_source_dictionary(self):
        block = ColumnBlock.from_rows([("a", [1]), ("b", [2]), ("a", [3])], 2)
        got = block.take([2, 2, 0])
        assert got.columns[0].dictionary is block.columns[0].dictionary
        assert got.columns[1].kind == "o"
        assert got.rows()[0][1] is block.rows()[2][1]  # objects, not copies

    @given(any_rows, st.lists(st.integers(0, 1), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_select_equals_column_permutation(self, rows, positions):
        block = ColumnBlock.from_rows(rows, 2)
        got = block.select(positions)
        assert got.n == len(rows) and got.arity == len(positions)
        assert all(g is block.columns[i] for g, i in zip(got.columns, positions))
        same_rows(got.rows(), [tuple(r[i] for i in positions) for r in rows])

    @given(st.lists(st.one_of(any_rows, int_rows), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_concat_equals_list_concatenation(self, pieces):
        # Pieces mix all-int ("i"), dictionary and object columns, so the
        # columns of one position disagree in kind across the concat.
        got = ColumnBlock.concat([ColumnBlock.from_rows(p, 2) for p in pieces])
        same_rows(got.rows(), [r for p in pieces for r in p])

    def test_concat_merges_dictionaries_on_type_and_value(self):
        a = ColumnBlock.from_rows([(1,), (True,), ("x",)], 1)
        b = ColumnBlock.from_rows([(1.0,), ("x",), (1,), (NAN,)], 1)
        got = ColumnBlock.concat([a, b])
        col = got.columns[0]
        assert col.kind == "d"
        same_values(col.values(), [1, True, "x", 1.0, "x", 1, NAN])
        same_values(col.dictionary, [1, True, "x", 1.0, NAN])  # 1 and "x" once

    def test_concat_of_strided_slices_shares_the_parent_dictionary(self):
        rows = [(str(i % 5), i) for i in range(23)]
        parent = ColumnBlock.from_rows(rows, 2)
        slices = [parent.take(range(i, 23, 3)) for i in range(3)]
        got = ColumnBlock.concat(slices)
        assert got.columns[0].dictionary == parent.columns[0].dictionary
        assert got.rows() == rows[0::3] + rows[1::3] + rows[2::3]
        again = ColumnBlock.concat([got.take([4, 0]), slices[1]])
        assert again.rows() == [got.rows()[4], got.rows()[0]] + rows[1::3]

    def test_empty_and_zero_arity_blocks(self):
        empty = ColumnBlock.from_rows([], 2)
        full = ColumnBlock.from_rows([("a", 1)], 2)
        assert empty.take([]).rows() == []
        assert ColumnBlock.concat([empty, empty]).rows() == []
        assert ColumnBlock.concat([empty, full, empty]) is full
        unit = ColumnBlock.from_rows([(), (), ()], 0)
        assert unit.take([2, 0]).n == 2 and unit.take([2, 0]).rows() == [(), ()]
        assert unit.select([]).n == 3
        assert ColumnBlock.concat([unit, unit.take([1])]).rows() == [()] * 4


def loop_encode(values):
    """The per-value encoder the one-pass codec replaced, kept as its oracle."""
    vals = list(values)
    if all(type(v) is int and -(1 << 63) <= v < (1 << 63) for v in vals):
        return Column("i", array("q", vals))
    index, dictionary, codes = {}, [], array("q")
    try:
        for v in vals:
            k = (v.__class__, v)
            c = index.get(k)
            if c is None:
                c = index[k] = len(dictionary)
                dictionary.append(v)
            codes.append(c)
    except TypeError:
        return Column("o", list(vals))
    return Column("d", codes, dictionary)


class Text(str):
    """A ``str`` subclass: its own exact type, dictionary-keyed apart."""


NAN_B = float("nan")  # a second NaN object: equal to nothing, itself included
one_type_column = st.one_of(
    st.lists(st.text(max_size=3), max_size=40),
    st.lists(st.floats(), max_size=40),
    st.lists(st.sampled_from([0.0, -0.0, NAN, NAN_B, 1.5]), max_size=40),
    st.lists(st.builds(Text, st.text(max_size=2)), max_size=20),
    st.lists(st.none(), max_size=5),
    st.lists(st.booleans(), max_size=20),
    st.lists(st.binary(max_size=2), max_size=20),
    st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(["a", 1.0])), max_size=20),
    st.lists(st.tuples(st.lists(st.integers(0, 1), max_size=1)), max_size=5),
    st.lists(st.integers(-(2**65), 2**65), max_size=20),
)
codec_column = st.one_of(
    one_type_column,
    st.lists(kernel_value, max_size=30),
    st.lists(st.sampled_from(["a", Text("a"), None, 1, 1.0, True]), max_size=20),
)


class TestOnePassCodec:
    """``encode_column`` against :func:`loop_encode`: kind, codes, the very
    dictionary objects and wire bytes, on every column shape."""

    @given(codec_column)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_value_loop(self, vals):
        got, want = encode_column(vals), loop_encode(vals)
        assert got.kind == want.kind
        if got.kind == "o":
            assert all(g is w for g, w in zip(got.data, want.data))
        else:
            assert list(got.data) == list(want.data)
        if got.kind == "d":
            assert len(got.dictionary) == len(want.dictionary)
            assert all(g is w for g, w in zip(got.dictionary, want.dictionary))
        block = ColumnBlock(len(vals), [got])
        assert pack_blob((), block) == pack_blob((), ColumnBlock(len(vals), [want]))

    def test_edge_cases_by_name(self):
        for vals in ([], [NAN, NAN, NAN_B], [0.0, -0.0], [Text("a"), Text("a")],
                     [None], [(1,), (True,)], [[1], [1]], [2**63, 1]):
            got = encode_column(vals)
            want = loop_encode(vals)
            assert (got.kind, list(got.data)) == (want.kind, list(want.data)), vals
        col = encode_column([0.0, -0.0, NAN, NAN])
        assert str(col.dictionary[0]) == "0.0"  # the first of an equal pair
        assert list(col.data) == [0, 0, 1, 1]  # the same NaN object: one code


class TestDictionaryDecode:
    """``values()`` of a dictionary column hands back the dictionary's own
    objects, by identity, whatever the values and the code width."""

    @pytest.mark.parametrize(
        "values",
        [
            [(1, "a"), (2, "b"), (1, "a"), ()],
            [None, "x", None],
            [True, 1, 1.0, False, 0, True],
            [],
        ],
        ids=["tuples", "none", "bool-int-mixed", "empty"],
    )
    def test_values_are_the_dictionary_objects(self, values):
        col = encode_column(values)
        if not values:
            col = Column("d", array("q"), [])
        assert col.kind == "d"
        got = col.values()
        assert got == values
        assert all(v is col.dictionary[c] for v, c in zip(got, col.data))

    @pytest.mark.parametrize("n_values", [3, 300, 70_000])
    def test_every_narrow_code_width(self, n_values):
        dictionary = [(i, str(i)) for i in range(n_values)]
        codes = array("q", [n_values - 1, 0, n_values // 2, 0])
        col = Column("d", _narrow_codes(codes, n_values), dictionary)
        assert col.data.itemsize == {3: 1, 300: 2, 70_000: 4}[n_values]
        got = col.values()
        assert all(v is dictionary[c] for v, c in zip(got, codes))


class TestBoolIntRegression:
    """The dictionary encoder must never identify 1 / True / 1.0.

    Python's ``dict`` does (``hash(1) == hash(True) == hash(1.0)`` and all
    compare equal), which is exactly the latent ambiguity the
    ``(type, value)`` dictionary keys exist to kill.
    """

    VALUES = [1, True, 0, False, 1.0, 0.0, 2, "1"]

    def test_column_round_trip_preserves_types(self):
        col = encode_column(self.VALUES)
        assert col.kind == "d"  # bool/float disqualify the int fast path
        same_values(col.values(), self.VALUES)
        # Distinct dictionary entries for the dict-equal triple.
        assert len(col.dictionary) == len(self.VALUES)

    def test_wire_round_trip_preserves_types(self):
        rows = [(v, i) for i, v in enumerate(self.VALUES)]
        got = unpack_blob(pack_blob(rows))
        assert got == rows
        for g, r in zip(got, rows):
            assert type(g[0]) is type(r[0])

    def test_bool_and_int_are_one_key_on_both_backings(self):
        """The dictionary keeps ``1`` and ``True`` apart for decode only:
        keys rank on the decoded values, where they are one key."""
        rows = [(1, "x"), (True, "y"), (2, "z")]
        cl = Cluster(2)
        by_rows = distribute_relation(Relation("R", ("A", "B"), rows), cl.root_group())
        assert by_rows.column_parts is None  # base relations are row slices
        # A column-backed result whose bool sits alone in a part.
        by_cols = DistRelation("R", ("A", "B"), [[rows[0], rows[2]], [rows[1]]])
        by_cols = by_cols.aligned(by_cols.attrs)
        assert by_cols.column_parts is not None
        for rel in (by_rows, by_cols):
            counted = count_by_key(cl.root_group(), rel, ("A",), "cnt")
            assert sorted(c for part in counted for _k, c in part) == [1, 2]

    def test_decode_keeps_types_that_orderable_ties(self):
        col = encode_column([1, True, 1.0])
        assert list(map(type, col.values())) == [int, bool, float]
        oks = [orderable(v) for v in col.values()]
        assert oks[0] == oks[1] == oks[2]

    def test_sorted_primitive_parity_cached_vs_bypass(self):
        rows = [(v, i % 3) for i, v in enumerate([1, True, 0, False, 1, True])]
        rel_ram = Relation("R", ("A", "B"), rows)
        cl = Cluster(3)
        g = cl.root_group()
        rel = distribute_relation(rel_ram, g)
        got = count_by_key(g, rel, ("A",), "cnt")
        with cache_disabled():
            cl2 = Cluster(3)
            g2 = cl2.root_group()
            rel2 = distribute_relation(rel_ram, g2)
            ref = count_by_key(g2, rel2, ("A",), "cnt")
        assert got == ref
        assert cl.snapshot().as_dict() == cl2.snapshot().as_dict()


class TestRelationParity:
    """Row-path and columnar-path construction are semantically identical."""

    ROWS = [(1, "a"), (2, "b"), (1, "a"), (True, "a"), (2.0, "b")]

    def test_dedup_matches(self):
        by_rows = Relation("R", ("A", "B"), self.ROWS)
        block = ColumnBlock.from_rows([tuple(r) for r in self.ROWS], 2)
        by_cols = Relation.from_columns("R", ("A", "B"), block)
        assert by_rows == by_cols
        assert by_rows.rows == by_cols.rows  # same order, same survivors

    def test_annotation_combining_matches(self):
        anns = [10, 20, 3, 4, 5]
        by_rows = Relation("R", ("A", "B"), self.ROWS, anns, COUNT)
        block = ColumnBlock.from_rows([tuple(r) for r in self.ROWS], 2)
        by_cols = Relation.from_columns("R", ("A", "B"), block, anns, COUNT)
        assert by_rows == by_cols
        assert by_rows.annotation_map() == by_cols.annotation_map()

    @given(
        st.lists(st.tuples(mixed_value, st.integers(0, 3)), max_size=30)
    )
    @settings(max_examples=60, deadline=None)
    def test_construction_paths_agree(self, rows):
        try:
            by_rows = Relation("R", ("A", "B"), rows)
        except TypeError:
            return  # unhashable rows reject on both paths identically
        block = ColumnBlock.from_rows([tuple(r) for r in rows], 2)
        by_cols = Relation.from_columns("R", ("A", "B"), block)
        assert by_rows.rows == by_cols.rows

    def test_unique_block_is_kept_as_backing(self):
        block = ColumnBlock.from_rows([(1, "a"), (2, "b")], 2)
        rel = Relation.from_columns("R", ("A", "B"), block)
        assert rel.columns is block

    def test_columns_lazy_and_exact(self):
        rel = Relation("R", ("A", "B"), self.ROWS)
        block = rel.columns
        assert block.rows() == list(rel.rows)
        assert rel.columns is block  # cached

    def test_renamed_shares_backing(self):
        rel = Relation("R", ("A", "B"), [(1, "a"), (2, "b")])
        _ = rel.columns
        r2 = rel.renamed("S", ("X", "Y"))
        assert r2.name == "S" and r2.attrs == ("X", "Y")
        assert r2.rows is rel.rows
        assert r2.columns is rel.columns
        assert r2.positions(("Y",)) == (1,)
        with pytest.raises(Exception):
            rel.renamed("S", ("X",))  # arity mismatch


class TestDistRelationColumnar:
    def test_distribute_deals_row_slices(self):
        rel_ram = Relation("R", ("A",), [(i,) for i in range(20)])
        cl = Cluster(4)
        d = distribute_relation(rel_ram, cl.root_group())
        assert d.column_parts is None  # nothing encoded
        assert d.total_size() == 20
        # The historical round-robin deal, of the base relation's own tuples.
        assert d.parts == [[(i,) for i in range(j, 20, 4)] for j in range(4)]
        for j, part in enumerate(d.parts):
            assert type(part) is list
            assert all(a is b for a, b in zip(part, rel_ram.rows[j::4]))
        # Annotated relations deal ``row + (w,)``.
        counted = Relation("R", ("A",), [(i,) for i in range(5)], range(5), COUNT)
        a = distribute_relation(counted, cl.root_group(), annotate=True)
        assert a.attrs == ("A", "#w:R")
        assert a.parts == [[(i, i) for i in range(j, 5, 4)] for j in range(4)]

    def test_column_values_both_backings(self):
        rows = [[(1, "a"), (2, "b")], [(3, "c")]]
        d = DistRelation("R", ("A", "B"), rows)
        assert d.column_values(0, 1) == ["a", "b"]
        c = DistRelation("R", ("A", "B"), rows).compact()
        assert c.column_values(1, 0) == [3]

    def test_compact_round_trips(self):
        rows = [[(1, "a"), (True, "b")], [(2.5, "c")]]
        d = DistRelation("R", ("A", "B"), rows)
        before = [list(p) for p in d.parts]
        d.compact()
        assert d._parts is None
        assert d.parts == before
        for p, q in zip(d.parts, before):
            for r1, r2 in zip(p, q):
                assert type(r1[0]) is type(r2[0])

    def test_owned_parts_skip_copy(self):
        fresh = [[(1,)], [(2,)]]
        d = DistRelation("R", ("A",), fresh, owned=True)
        assert d.parts[0] is fresh[0]  # no per-part copy

    def test_default_still_copies_defensively(self):
        mine = [[(1,)], [(2,)]]
        d = DistRelation("R", ("A",), mine)
        assert d.parts[0] is not mine[0]
        mine[0].append((9,))
        assert d.parts[0] == [(1,)]

    def test_transforms_use_owned_path(self):
        d = DistRelation("R", ("A",), [[(1,)], [(2,)]])
        e = d.empty_like()
        assert e.parts == [[], []]

    def test_semi_join_on_columnar_relations(self):
        cl = Cluster(3)
        g = cl.root_group()
        r = distribute_relation(
            Relation("R", ("A", "B"), [(i % 5, i) for i in range(30)]), g
        )
        s = distribute_relation(
            Relation("S", ("A",), [(0,), (2,), ("x",)]), g
        )
        out = semi_join(g, r, s, "sj")
        assert sorted(out.all_rows()) == sorted(
            (i % 5, i) for i in range(30) if i % 5 in (0, 2)
        )


class TestWireFormat:
    def test_blob_smaller_than_pickle_on_typical_rows(self):
        rows = [(i % 100, f"user{i % 50}", i % 7) for i in range(5000)]
        blob = pack_blob(rows)
        baseline = pickle.dumps(rows, pickle.HIGHEST_PROTOCOL)
        assert unpack_blob(blob) == rows
        assert len(blob) * 2 <= len(baseline)

    def test_strided_parts_ship_only_their_own_dictionary(self):
        # A take shares its source's full dictionary in memory; the wire
        # must remap codes to the part's used values or every part would
        # ship all distinct values of the whole source.
        rows = [(f"unique-string-value-{i}", i) for i in range(4000)]
        parent = ColumnBlock.from_rows(rows, 2)
        d = DistRelation.from_column_parts(
            "R", ("A", "B"), [parent.take(range(i, 4000, 8)) for i in range(8)]
        )
        encoded = sum(len(d.wire_blob(i)) for i in range(8))
        baseline = sum(
            len(pickle.dumps(p, pickle.HIGHEST_PROTOCOL)) for p in d.parts
        )
        assert encoded < baseline
        for i in range(8):
            assert unpack_blob(d.wire_blob(i)) == d.parts[i]

    def test_non_uniform_rows_fall_back_to_pickle(self):
        part = [(1, 2), (3,), "not-a-tuple"]
        assert unpack_blob(pack_blob(part)) == part

    def test_empty_part(self):
        assert unpack_blob(pack_blob([])) == []

    def test_multiprocess_wire_stats_and_parity(self, monkeypatch):
        backend = MultiprocessBackend(workers=2)
        # Every part that ships, so the row-pickle baseline is computed
        # over exactly what crossed the wire.
        shipped = []
        blob_getter = backend._blob_getter

        def spy(parts, owner, blobs, meter=None):
            get = blob_getter(parts, owner, blobs, meter)

            def get_and_note(idx):
                shipped.append(parts[idx])
                return get(idx)

            return get_and_note

        monkeypatch.setattr(backend, "_blob_getter", spy)
        try:
            rel_ram = Relation(
                "R", ("A", "B"),
                [(f"k{i % 40}" if i % 2 else i % 40, i) for i in range(2000)],
            )
            cl = Cluster(4, backend=backend)
            g = cl.root_group()
            rel = distribute_relation(rel_ram, g)
            got = count_by_key(g, rel, ("A",), "cnt")

            cl_ref = Cluster(4)
            g_ref = cl_ref.root_group()
            ref = count_by_key(
                g_ref, distribute_relation(rel_ram, g_ref), ("A",), "cnt"
            )
            assert got == ref
            assert cl.snapshot().as_dict() == cl_ref.snapshot().as_dict()

            stats = backend.wire_stats()
            assert stats["parts_shipped"] == len(shipped) > 0
            baseline = sum(
                len(pickle.dumps(part, pickle.HIGHEST_PROTOCOL))
                for part in shipped
            )
            assert 0 < stats["bytes_shipped"] < baseline
        finally:
            backend.close()

    def test_worker_memo_hits_ship_no_bytes(self):
        backend = MultiprocessBackend(workers=2)
        try:
            rel_ram = Relation("R", ("A",), [(i,) for i in range(500)])

            def run():
                cl = Cluster(4, backend=backend)
                g = cl.root_group()
                return count_by_key(
                    g, distribute_relation(rel_ram, g), ("A",), "cnt"
                )

            first = run()
            cold = backend.wire_stats()["bytes_shipped"]
            second = run()
            warm = backend.wire_stats()["bytes_shipped"] - cold
            assert first == second
            assert warm == 0  # content-addressed memo: nothing re-shipped
        finally:
            backend.close()
