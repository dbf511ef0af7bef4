"""Tests for Section 6: counting, LinearAggroYannakakis, join-aggregate."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aggregates import (
    aggregate_out,
    aggregate_total,
    annotated_reduce,
    mpc_count,
    mpc_group_by_count,
    mpc_subset_sizes,
)
from repro.core.runner import mpc_join_aggregate, mpc_output_size
from repro.data.generators import (
    add_dangling,
    matching_instance,
    random_instance,
    star_instance,
)
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.mpc import Cluster, distribute_instance
from repro.query import catalog
from repro.query.ghd import is_free_connex, output_join_tree
from repro.query.hypergraph import Hypergraph
from repro.ram.yannakakis import group_by_count, join_size, subset_join_sizes, yannakakis
from repro.semiring import BOOLEAN, COUNT, MIN_TROPICAL, SUM_PRODUCT


class TestMpcCount:
    @pytest.mark.parametrize("name", ["binary", "line3", "star3", "fork", "line5"])
    def test_matches_oracle(self, name):
        q = catalog.CATALOG[name]
        inst = random_instance(q, 60, 6, seed=71)
        cl = Cluster(8)
        g = cl.root_group()
        assert mpc_count(g, q, distribute_instance(inst, g)) == join_size(inst)

    def test_with_dangling(self):
        inst = add_dangling(matching_instance(catalog.line3(), 30), 10, seed=72)
        cl = Cluster(4)
        g = cl.root_group()
        assert mpc_count(g, inst.query, distribute_instance(inst, g)) == 30

    def test_zero(self):
        from repro.data.instance import Instance
        from repro.data.relation import Relation

        q = catalog.binary_join()
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), [(1, 2)]),
                "R2": Relation("R2", ("B", "C"), [(7, 8)]),
            },
        )
        cl = Cluster(2)
        g = cl.root_group()
        assert mpc_count(g, q, distribute_instance(inst, g)) == 0

    def test_empty_component_under_a_real_parent(self):
        """``R`` shares nothing with ``T`` and glues under it: empty, it
        broadcasts ``None`` and empties ``T``, so the count is 0."""
        from repro.query.hypergraph import join_tree

        q = Hypergraph({"R": ("A", "B"), "T": ("D",)})
        assert join_tree(q).parent["R"] == "T"
        inst = Instance(q, {
            "R": Relation("R", ("A", "B"), []),
            "T": Relation("T", ("D",), [(d,) for d in range(5)]),
        })
        cl = Cluster(4)
        g = cl.root_group()
        assert mpc_count(g, q, distribute_instance(inst, g)) == 0
        assert cl.snapshot().by_label["count/scalar-R"] == 3

    def test_linear_load_corollary4(self):
        """Corollary 4: count load ~ IN/p even when OUT is enormous."""
        from repro.data.generators import line_trap_instance

        p = 8
        inst = line_trap_instance(3, 2400, 200000)  # OUT ~ 80x IN
        cl = Cluster(p)
        g = cl.root_group()
        cnt = mpc_count(g, inst.query, distribute_instance(inst, g))
        assert cnt == join_size(inst)
        assert cl.snapshot().load <= 15 * inst.input_size / p + 40 * p


class TestGroupByCount:
    def test_matches_oracle(self):
        q = catalog.line3()
        inst = random_instance(q, 80, 6, seed=73)
        cl = Cluster(8)
        g = cl.root_group()
        parts = mpc_group_by_count(g, q, distribute_instance(inst, g), ("B",))
        got = {k: v for part in parts for k, v in part}
        assert got == group_by_count(inst, ("B",))

    def test_requires_covering_relation(self):
        from repro.errors import QueryError

        q = catalog.line3()
        inst = matching_instance(q, 5)
        cl = Cluster(2)
        g = cl.root_group()
        with pytest.raises(QueryError):
            mpc_group_by_count(g, q, distribute_instance(inst, g), ("A", "D"))


class TestSubsetSizes:
    def test_matches_eq2_on_hierarchical(self):
        """On dangling-free hierarchical instances the S-join sizes equal
        |Q(R, S)| (Theorem 2 proof) — the eq. 2 statistics."""
        inst = star_instance(2, 4, 3)
        cl = Cluster(4)
        g = cl.root_group()
        got = mpc_subset_sizes(g, inst.query, distribute_instance(inst, g))
        assert got == subset_join_sizes(inst)

    def test_matches_ram_join_sizes(self):
        """In general the statistic is the subset *join* size."""
        from repro.ram.joins import multi_join

        inst = matching_instance(catalog.line3(), 25)
        cl = Cluster(4)
        g = cl.root_group()
        got = mpc_subset_sizes(g, inst.query, distribute_instance(inst, g))
        for s, cnt in got.items():
            expected = len(multi_join([inst[n] for n in sorted(s)]))
            assert cnt == expected, s

    def test_star_subsets(self):
        inst = star_instance(2, 4, 3)
        cl = Cluster(4)
        g = cl.root_group()
        got = mpc_subset_sizes(g, inst.query, distribute_instance(inst, g))
        assert got[frozenset({"R1"})] == 12
        assert got[frozenset({"R1", "R2"})] == 4 * 9


class TestAggregateOut:
    def _annotated_rels(self, inst, group):
        return distribute_instance(inst.with_uniform_annotations(COUNT), group, annotate=True)

    def test_residual_attrs_are_output_only(self):
        q = catalog.line3()
        inst = random_instance(q, 50, 5, seed=74).without_dangling()
        cl = Cluster(4)
        g = cl.root_group()
        rels = self._annotated_rels(inst, g)
        scaffold = output_join_tree(q, frozenset({"A", "B"}))
        residual = aggregate_out(g, scaffold, rels, COUNT)
        for rel in residual.values():
            real = [a for a in rel.attrs if not a.startswith("#")]
            assert set(real) <= {"A", "B"}

    def test_counts_preserved(self):
        """Sum of residual annotations (joined) equals the true group counts."""
        q = catalog.line3()
        inst = random_instance(q, 50, 5, seed=75)
        res = mpc_join_aggregate(q, {"B"}, inst.with_uniform_annotations(COUNT), COUNT, p=4)
        expected = {k: v for k, v in group_by_count(inst, ("B",)).items()}
        got = dict(zip(res.relation.rows, res.relation.annotations))
        assert got == {k: v for k, v in expected.items()}


class TestJoinAggregate:
    @pytest.mark.parametrize(
        "outputs", [set(), {"A"}, {"B"}, {"A", "B"}, {"B", "C"}, {"A", "B", "C"}]
    )
    def test_line3_count_groupings(self, outputs):
        q = catalog.line3()
        inst = random_instance(q, 70, 6, seed=76)
        ann = inst.with_uniform_annotations(COUNT)
        res = mpc_join_aggregate(q, outputs, ann, COUNT, p=8)
        if not outputs:
            assert res.scalar == join_size(inst)
        else:
            expected = group_by_count(inst, tuple(sorted(outputs)))
            got = dict(zip(res.relation.rows, res.relation.annotations))
            assert got == expected

    def test_full_output_is_plain_join(self):
        q = catalog.line3()
        inst = random_instance(q, 50, 6, seed=77)
        ann = inst.with_uniform_annotations(COUNT)
        res = mpc_join_aggregate(q, q.attributes, ann, COUNT, p=4)
        assert set(res.relation.rows) == set(yannakakis(inst).rows)
        assert all(w == 1 for w in res.relation.annotations)

    def test_non_free_connex_rejected(self):
        from repro.errors import QueryError

        q = catalog.line3()
        inst = matching_instance(q, 10).with_uniform_annotations(COUNT)
        with pytest.raises(QueryError):
            mpc_join_aggregate(q, {"A", "D"}, inst, COUNT, p=4)

    @pytest.mark.parametrize("outputs", [(), ("A",)])
    def test_an_unknown_algorithm_is_rejected_before_any_step(self, outputs):
        """A total aggregate never reads the name, and a group-by reads it
        only after its folds have posted load: the name is checked first,
        so neither runs a step."""
        from repro.core.runner import run_aggregate_algorithm
        from repro.errors import QueryError

        q = catalog.line3()
        inst = random_instance(q, 70, 6, seed=76).with_uniform_annotations(COUNT)
        with pytest.raises(QueryError, match="bogus"):
            mpc_join_aggregate(q, outputs, inst, COUNT, 4, algorithm="bogus")
        cluster = Cluster(4)
        g = cluster.root_group()
        rels = distribute_instance(inst, g, annotate=True)
        with pytest.raises(QueryError, match="bogus"):
            run_aggregate_algorithm(g, q, outputs, rels, COUNT, algorithm="bogus")
        report = cluster.snapshot()
        assert (report.steps, report.total, report.by_label) == (0, 0, {})

    def test_unannotated_rejected(self):
        from repro.errors import QueryError

        q = catalog.line3()
        inst = matching_instance(q, 10)
        with pytest.raises(QueryError):
            mpc_join_aggregate(q, {"A"}, inst, COUNT, p=4)

    def test_min_tropical_shortest_path_flavor(self):
        """min-plus aggregation: cheapest 2-hop cost per source.

        Note y = {A, C} would *not* be free-connex on the binary join (it
        adds a triangle edge — boolean matrix multiplication); y = {A} is.
        """
        from repro.data.instance import Instance
        from repro.data.relation import Relation

        q = catalog.binary_join()
        r1 = Relation(
            "R1", ("A", "B"),
            [("s", "m1"), ("s", "m2")],
            annotations=[1.0, 5.0], semiring=MIN_TROPICAL,
        )
        r2 = Relation(
            "R2", ("B", "C"),
            [("m1", "t"), ("m2", "t")],
            annotations=[10.0, 2.0], semiring=MIN_TROPICAL,
        )
        inst = Instance(q, {"R1": r1, "R2": r2})
        res = mpc_join_aggregate(q, {"A"}, inst, MIN_TROPICAL, p=4)
        got = dict(zip(res.relation.rows, res.relation.annotations))
        assert got == {("s",): 7.0}  # min(1+10, 5+2)

    def test_endpoint_projection_not_free_connex(self):
        """y = {A, C} on the binary join is rejected (matrix product)."""
        from repro.errors import QueryError

        q = catalog.binary_join()
        inst = matching_instance(q, 5).with_uniform_annotations(COUNT)
        with pytest.raises(QueryError):
            mpc_join_aggregate(q, {"A", "C"}, inst, COUNT, p=4)

    def test_boolean_semiring(self):
        q = catalog.line3()
        inst = random_instance(q, 40, 5, seed=78)
        ann = inst.with_uniform_annotations(BOOLEAN)
        res = mpc_join_aggregate(q, {"A"}, ann, BOOLEAN, p=4)
        expected = {k for k in group_by_count(inst, ("A",))}
        assert set(res.relation.rows) == expected
        assert all(w is True for w in res.relation.annotations)

    def test_sum_product_weighted(self):
        import random as rnd

        q = catalog.binary_join()
        inst = random_instance(q, 40, 5, seed=79)
        rng = rnd.Random(0)
        from repro.data.instance import Instance
        from repro.data.relation import Relation

        rels = {}
        weights = {}
        for n, rel in inst.relations.items():
            ws = [float(rng.randint(1, 5)) for _ in rel.rows]
            weights[n] = dict(zip(rel.rows, ws))
            rels[n] = Relation(n, rel.attrs, rel.rows, ws, SUM_PRODUCT)
        ann = Instance(q, rels)
        res = mpc_join_aggregate(q, {"B"}, ann, SUM_PRODUCT, p=4)
        # RAM reference.
        full = yannakakis(ann)
        expected = {}
        for row, w in zip(full.rows, full.annotations):
            b = (row[full.positions(("B",))[0]],)
            expected[b] = expected.get(b, 0.0) + w
        got = dict(zip(res.relation.rows, res.relation.annotations))
        assert got == pytest.approx(expected)

    def test_out_hierarchical_dispatch(self):
        q = catalog.line3()
        inst = random_instance(q, 50, 5, seed=80)
        ann = inst.with_uniform_annotations(COUNT)
        res = mpc_join_aggregate(q, {"A", "B"}, ann, COUNT, p=4)
        assert res.meta["downstream"] == "rhierarchical"

    def test_disconnected_component_scalar(self):
        """A component with no output attrs multiplies into every result."""
        from repro.data.instance import Instance
        from repro.data.relation import Relation
        from repro.query.hypergraph import Hypergraph

        q = Hypergraph({"R1": ("A", "B"), "R2": ("X",)})
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), [(1, 2), (3, 4)]),
                "R2": Relation("R2", ("X",), [(7,), (8,), (9,)]),
            },
        ).with_uniform_annotations(COUNT)
        res = mpc_join_aggregate(q, {"A"}, inst, COUNT, p=4)
        got = dict(zip(res.relation.rows, res.relation.annotations))
        assert got == {(1,): 3, (3,): 3}

    def test_star_group_by_hub(self):
        q = catalog.star_join(3)
        inst = star_instance(3, 5, 3)
        ann = inst.with_uniform_annotations(COUNT)
        res = mpc_join_aggregate(q, {"Z"}, ann, COUNT, p=8)
        got = dict(zip(res.relation.rows, res.relation.annotations))
        assert got == group_by_count(inst, ("Z",))


class TestAnnotatedReduce:
    def test_annotations_folded_not_lost(self):
        q = catalog.simple_r_hierarchical()
        inst = matching_instance(q, 6)
        ann = inst.with_uniform_annotations(COUNT)
        res = mpc_join_aggregate(q, set(), ann, COUNT, p=4)
        assert res.scalar == 6

    def test_weighted_contained_relation(self):
        from repro.data.instance import Instance
        from repro.data.relation import Relation

        q = catalog.simple_r_hierarchical()
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A",), [(1,)], annotations=[2], semiring=COUNT),
                "R2": Relation("R2", ("A", "B"), [(1, 5)], annotations=[3], semiring=COUNT),
                "R3": Relation("R3", ("B",), [(5,)], annotations=[7], semiring=COUNT),
            },
        )
        res = mpc_join_aggregate(q, set(), inst, COUNT, p=2)
        assert res.scalar == 2 * 3 * 7


class TestOutputSizePrimitive:
    def test_matches_and_linear(self):
        from repro.data.generators import line_trap_instance

        inst = line_trap_instance(3, 1500, 30000)
        cnt, rep = mpc_output_size(inst.query, inst, 8)
        assert cnt == join_size(inst)
        assert rep.load <= 15 * inst.input_size / 8 + 40 * 8


# ----------------------------------------------------------------------
# mpc_join_aggregate against a brute-force oracle (hypothesis)
# ----------------------------------------------------------------------
TWO_COMPONENTS = Hypergraph(
    {"R1": ("A", "B"), "R2": ("B", "C"), "R3": ("X",)}, name="two-components"
)

#: Free-connex (query, y) pairs: y = {} is the total aggregate.
FREE_CONNEX = [
    (q, frozenset(y))
    for q, ys in [
        (catalog.line3(), ["", "A", "B", "AB", "BC", "ABCD"]),
        (catalog.star_join(3), [[], ["Z"], ["X1"], ["Z", "X1"]]),
        (catalog.fork_join(), ["", "C", "AB", "BC", "CDE"]),
        (catalog.q2_r_hierarchical(), [[], ["x1"], ["x5"], ["x1", "x3"], ["x3", "x5"]]),
        (TWO_COMPONENTS, ["", "A", "X", "AX", "BC"]),
    ]
    for y in ys
]

#: Annotation values per semiring, the semiring's zero first.  Floats are
#: small integers, so every sum and product is exact in any order.
ANNOTATIONS = {
    COUNT: [0, 1, 2, 3],
    SUM_PRODUCT: [0.0, 1.0, 2.0, 3.0],
    MIN_TROPICAL: [float("inf"), 0.0, 1.0, 2.0],
    BOOLEAN: [False, True],
}


def _oracle(inst: Instance, y: frozenset, semiring) -> dict:
    """Every full-join tuple grouped by ``y``: annotations combine with
    ``times`` within a tuple and with ``plus`` across tuples, and every
    group the join reaches is kept, whatever its sum."""
    tuples = [({}, semiring.one)]
    for name in inst.query.edge_names:
        rel = inst[name]
        tuples = [
            ({**binding, **dict(zip(rel.attrs, row))}, semiring.times(w, a))
            for binding, w in tuples
            for row, a in zip(rel.rows, rel.annotations)
            if all(binding.get(x, v) == v for x, v in zip(rel.attrs, row))
        ]
    groups: dict = {}
    for binding, w in tuples:
        key = tuple(binding[x] for x in sorted(y))
        groups[key] = semiring.plus(groups[key], w) if key in groups else w
    return groups


@st.composite
def aggregate_cases(draw):
    """A free-connex aggregate over a small annotated instance: a dangling
    row on every edge, sometimes an empty component, zeros among the
    annotations."""
    query, y = draw(st.sampled_from(FREE_CONNEX))
    semiring = draw(st.sampled_from(list(ANNOTATIONS)))
    dom = draw(st.integers(0, 3))
    rels = {}
    for i, edge in enumerate(query.edge_names):
        attrs = tuple(sorted(query.attrs_of(edge)))
        value = st.integers(0, dom)
        rows = draw(st.lists(st.tuples(*[value] * len(attrs)), max_size=6))
        rows.append((-1 - i,) * len(attrs))  # joins no other edge's rows
        ann = draw(st.lists(
            st.sampled_from(ANNOTATIONS[semiring]),
            min_size=len(rows), max_size=len(rows),
        ))
        rels[edge] = Relation(edge, attrs, rows, ann, semiring)
    if query is TWO_COMPONENTS:
        empty = draw(st.sampled_from([None, "R1", "R3"]))  # either component
        if empty:
            rels[empty] = Relation(empty, rels[empty].attrs, [], [], semiring)
    p = draw(st.sampled_from([1, 3, 4]))
    return Instance(query, rels), y, semiring, p


def test_property_cases_are_free_connex():
    assert all(is_free_connex(q, y) for q, y in FREE_CONNEX)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(aggregate_cases())
def test_join_aggregate_matches_brute_force(case):
    inst, y, semiring, p = case
    res = mpc_join_aggregate(inst.query, y, inst, semiring, p)
    want = _oracle(inst, y, semiring)
    if not y:
        assert res.relation is None
        assert res.scalar == want.get((), semiring.zero)
    else:
        assert dict(zip(res.relation.rows, res.relation.annotations)) == want


# ----------------------------------------------------------------------
# One sweep: the fold alone drops what dangles (no full reducer first)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("y", ["", "A", "BC", "ABCD"])
def test_the_fold_drops_dangling_tuples_without_a_reducer(y):
    inst = add_dangling(random_instance(catalog.line3(), 40, 5, seed=78), 12, seed=79)
    ann = Instance(inst.query, {
        n: Relation(n, r.attrs, r.rows, [1 + i % 3 for i in range(len(r))], COUNT)
        for n, r in inst.relations.items()
    })
    res = mpc_join_aggregate(inst.query, set(y), ann, COUNT, p=4)
    want = _oracle(ann, frozenset(y), COUNT)
    if not y:
        assert res.scalar == want[()]
    else:
        assert dict(zip(res.relation.rows, res.relation.annotations)) == want
    assert not [label for label in res.report.by_label if label.startswith("agg/dangling")]


def test_the_fold_matches_a_parent_one_to_a_child_true():
    """The key column mixes types Python cannot compare, so keys rank in
    ``orderable`` order, where ``1`` and ``True`` are one key: the parent's
    ``1`` matches the child's ``True``."""
    q = catalog.binary_join()  # R1 is R2's child in the fold
    inst = Instance(q, {
        "R1": Relation("R1", ("A", "B"), [(0, True), (1, "x"), (2, 2)]),
        "R2": Relation("R2", ("B", "C"), [(1, 0), ("x", 1), (5, 2)]),
    })
    g = Cluster(3).root_group()
    assert mpc_count(g, q, distribute_instance(inst, g)) == join_size(inst) == 2
    res = mpc_join_aggregate(q, (), inst.with_uniform_annotations(COUNT), COUNT, p=3)
    assert res.scalar == 2
