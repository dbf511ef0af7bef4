"""Robustness: degenerate shapes, adversarial values, failure paths.

Every public algorithm must either produce oracle-identical results or
raise a typed :mod:`repro.errors` exception — never crash or silently
mis-answer — on empty relations, singleton domains, unicode values,
mixed-type columns, and p larger than the data.
"""

import random

import pytest

from repro.core.runner import ALGORITHMS, mpc_join, mpc_join_aggregate
from repro.data.generators import matching_instance, random_instance
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.mpc import cache_disabled
from repro.query import catalog
from repro.ram.yannakakis import group_by_count, join_size, yannakakis
from repro.semiring import COUNT

JOIN_ALGOS = ["yannakakis", "line3", "acyclic", "binhc-multiround", "wc-line3"]


def mixed_type_instance(query, n=40, seed=5):
    """Every attribute drawn from ints, their string twins and ``None``."""
    rnd = random.Random(seed)
    domain = [0, 1, 2, 3, "0", "1", "x", None]
    rels = {}
    for name, attrs in query.edges.items():
        rows = {tuple(rnd.choice(domain) for _ in attrs) for _ in range(n)}
        rels[name] = Relation(name, attrs, sorted(rows, key=repr))
    return Instance(query, rels)


def expect_oracle(inst, algorithm, p=4):
    res = mpc_join(inst.query, inst, p=p, algorithm=algorithm)
    assert res.row_set() == set(yannakakis(inst).rows), algorithm


class TestDegenerateShapes:
    @pytest.mark.parametrize("algorithm", JOIN_ALGOS)
    def test_all_relations_empty(self, algorithm):
        q = catalog.line3()
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), []),
                "R2": Relation("R2", ("B", "C"), []),
                "R3": Relation("R3", ("C", "D"), []),
            },
        )
        expect_oracle(inst, algorithm)

    @pytest.mark.parametrize("algorithm", JOIN_ALGOS)
    def test_one_relation_empty(self, algorithm):
        q = catalog.line3()
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), [(1, 2)]),
                "R2": Relation("R2", ("B", "C"), []),
                "R3": Relation("R3", ("C", "D"), [(3, 4)]),
            },
        )
        expect_oracle(inst, algorithm)

    @pytest.mark.parametrize("algorithm", JOIN_ALGOS)
    def test_single_tuple_everywhere(self, algorithm):
        inst = matching_instance(catalog.line3(), 1)
        expect_oracle(inst, algorithm)

    @pytest.mark.parametrize("algorithm", JOIN_ALGOS)
    def test_p_larger_than_data(self, algorithm):
        inst = matching_instance(catalog.line3(), 3)
        expect_oracle(inst, algorithm, p=16)

    def test_single_value_domain(self):
        """Everything joins with everything: OUT = n^3 on one key."""
        q = catalog.line3()
        n = 12
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), [(i, 0) for i in range(n)]),
                "R2": Relation("R2", ("B", "C"), [(0, 0)]),
                "R3": Relation("R3", ("C", "D"), [(0, i) for i in range(n)]),
            },
        )
        for algorithm in JOIN_ALGOS:
            expect_oracle(inst, algorithm)


class TestAdversarialValues:
    def test_unicode_and_whitespace_values(self):
        q = catalog.binary_join()
        rows1 = [("ключ", "b 1"), ("", "b\t2"), ("naïve", "b 1")]
        rows2 = [("b 1", "x"), ("b\t2", "émoji 🎉")]
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), rows1),
                "R2": Relation("R2", ("B", "C"), rows2),
            },
        )
        for algorithm in ("yannakakis", "binhc", "acyclic"):
            expect_oracle(inst, algorithm)

    def test_mixed_type_join_column(self):
        """Ints and strings in one column must sort and join correctly."""
        q = catalog.binary_join()
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), [(1, 1), (2, "1"), (3, None)]),
                "R2": Relation("R2", ("B", "C"), [(1, "int"), ("1", "str"), (None, "none")]),
            },
        )
        expect_oracle(inst, "yannakakis")
        expect_oracle(inst, "acyclic")

    @pytest.mark.parametrize(
        "query, algorithm",
        [("line3", a) for a in (*JOIN_ALGOS, "binhc", "hypercube")]
        + [("star3", a) for a in (
            "yannakakis", "acyclic", "rhierarchical", "binhc",
            "binhc-multiround", "hypercube",
        )],
    )
    def test_mixed_type_join_column_through_intermediates(self, query, algorithm):
        """A join attribute mixing ints, strings and ``None`` reaches the
        later joins inside column-backed intermediates, where Python cannot
        compare the keys raw: they rank in ``orderable`` order there.
        Outputs match the oracle and the ledger the cache-bypassed run's."""
        inst = mixed_type_instance(catalog.CATALOG[query])
        res = mpc_join(inst.query, inst, p=4, algorithm=algorithm)
        assert res.row_set() == set(yannakakis(inst).rows)
        with cache_disabled():
            ref = mpc_join(inst.query, inst, p=4, algorithm=algorithm)
        assert res.report.as_dict() == ref.report.as_dict()

    @pytest.mark.parametrize(
        "query, outputs",
        [("line3", ()), ("line3", ("B",)), ("star3", ()), ("star3", ("Z",))],
        ids=["line3-count", "line3-by-B", "star3-count", "star3-by-Z"],
    )
    def test_mixed_type_join_column_aggregate(self, query, outputs):
        """Count and group-by count over a mixed int/str/``None`` join
        attribute: oracle outputs, and the cache-bypassed run's ledger."""
        inst = mixed_type_instance(catalog.CATALOG[query])
        ann = inst.with_uniform_annotations(COUNT)
        res = mpc_join_aggregate(inst.query, set(outputs), ann, COUNT, p=4)
        if outputs:
            got = dict(zip(res.relation.rows, res.relation.annotations))
            assert got == group_by_count(inst, outputs)
        else:
            assert res.scalar == join_size(inst)
        with cache_disabled():
            ref = mpc_join_aggregate(inst.query, set(outputs), ann, COUNT, p=4)
        assert res.report.as_dict() == ref.report.as_dict()

    def test_negative_and_large_numbers(self):
        q = catalog.binary_join()
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), [(-(2**70), 0), (5, 2**80)]),
                "R2": Relation("R2", ("B", "C"), [(0, -1), (2**80, 7)]),
            },
        )
        expect_oracle(inst, "yannakakis")

    def test_tuple_valued_cells(self):
        """forest_instance produces tuple-typed values; joins must cope."""
        from repro.data.generators import forest_instance

        inst = forest_instance(catalog.q2_hierarchical(), 2)
        expect_oracle(inst, "rhierarchical")


class TestAggregateRobustness:
    def test_empty_instance_total(self):
        q = catalog.binary_join()
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), []),
                "R2": Relation("R2", ("B", "C"), []),
            },
        ).with_uniform_annotations(COUNT)
        res = mpc_join_aggregate(q, set(), inst, COUNT, p=4)
        assert res.scalar == 0

    def test_empty_instance_group_by(self):
        q = catalog.binary_join()
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), []),
                "R2": Relation("R2", ("B", "C"), []),
            },
        ).with_uniform_annotations(COUNT)
        res = mpc_join_aggregate(q, {"A"}, inst, COUNT, p=4)
        assert len(res.relation) == 0

    def test_all_dangling_group_by(self):
        q = catalog.binary_join()
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("A", "B"), [(1, 2)]),
                "R2": Relation("R2", ("B", "C"), [(9, 9)]),
            },
        ).with_uniform_annotations(COUNT)
        res = mpc_join_aggregate(q, {"A"}, inst, COUNT, p=4)
        assert len(res.relation) == 0


class TestErrorPaths:
    def test_unknown_algorithm_is_query_error(self):
        from repro.errors import QueryError

        inst = matching_instance(catalog.line3(), 2)
        with pytest.raises(QueryError):
            mpc_join(inst.query, inst, p=2, algorithm="nope")

    def test_all_errors_share_base_class(self):
        from repro import errors

        for name in (
            "QueryError",
            "CyclicQueryError",
            "SchemaError",
            "InstanceError",
            "MPCError",
            "AllocationError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_algorithm_list_all_runnable_on_matching_line3(self):
        inst = matching_instance(catalog.line3(), 6)
        for algorithm in ALGORITHMS:
            if algorithm in ("wc-triangle", "rhierarchical"):
                continue  # wrong query class for line3
            res = mpc_join(inst.query, inst, p=4, algorithm=algorithm)
            assert res.row_set() == set(yannakakis(inst).rows), algorithm
