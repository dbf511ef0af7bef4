"""Tests for the instance-optimal r-hierarchical algorithm (Section 3.2)."""

import pytest

from repro.core.rhierarchical import rhierarchical_join
from repro.data.generators import (
    add_dangling,
    cartesian_instance,
    forest_instance,
    matching_instance,
    random_instance,
    star_instance,
)
from repro.data.hard_instances import rhier_extremal
from repro.data.instance import Instance
from repro.errors import QueryError
from repro.query import catalog
from repro.query.hypergraph import Hypergraph
from repro.theory.bounds import l_instance
from tests.conftest import assert_matches_oracle, deck_strings, part_digest


class TestCorrectness:
    @pytest.mark.parametrize(
        "name",
        ["binary", "star3", "star4", "q1_tall_flat", "q2_hierarchical",
         "q2_r_hierarchical", "simple_r_hierarchical", "cartesian2", "cartesian3"],
    )
    def test_random_instances(self, name):
        q = catalog.CATALOG[name]
        inst = random_instance(q, 50, 5, seed=41)
        assert_matches_oracle(inst, rhierarchical_join)

    def test_forest_instances(self):
        for skew in (1.0, 4.0):
            inst = forest_instance(catalog.q2_hierarchical(), 3, skew=skew)
            assert_matches_oracle(inst, rhierarchical_join)

    def test_star_with_heavy_hub(self):
        inst = star_instance(3, 2, 12)  # two hubs, large fanout -> heavy
        assert_matches_oracle(inst, rhierarchical_join)

    def test_cartesian_products(self):
        for sizes in ([30, 30], [100, 5, 2], [12, 12, 12]):
            inst = cartesian_instance(sizes)
            assert_matches_oracle(inst, rhierarchical_join)

    def test_with_dangling(self):
        inst = add_dangling(star_instance(3, 5, 3), 20, seed=42)
        assert_matches_oracle(inst, rhierarchical_join)

    def test_non_r_hierarchical_rejected(self):
        inst = matching_instance(catalog.line3(), 10)
        from repro.mpc import Cluster, distribute_instance

        cl = Cluster(4)
        g = cl.root_group()
        with pytest.raises(QueryError):
            rhierarchical_join(g, inst.query, distribute_instance(inst, g))

    @pytest.mark.parametrize("p", [1, 2, 4, 16])
    def test_various_cluster_sizes(self, p):
        inst = star_instance(3, 6, 4)
        assert_matches_oracle(inst, rhierarchical_join, p=p)

    def test_single_relation(self):
        from repro.query.hypergraph import Hypergraph
        from repro.data.instance import Instance
        from repro.data.relation import Relation

        q = Hypergraph({"R1": ("A", "B")})
        inst = Instance(q, {"R1": Relation("R1", ("A", "B"), [(1, 2), (3, 4)])})
        assert_matches_oracle(inst, rhierarchical_join)

    def test_mixed_heavy_light_hub(self):
        """Hub values straddling the light/heavy threshold (Case 1 split)."""
        from repro.data.instance import Instance
        from repro.data.relation import Relation

        q = catalog.star_join(2)
        rows1 = [("hot", f"x{i}") for i in range(60)] + [
            (f"z{j}", f"x{j}") for j in range(30)
        ]
        rows2 = [("hot", f"y{i}") for i in range(60)] + [
            (f"z{j}", f"y{j}") for j in range(30)
        ]
        inst = Instance(
            q,
            {
                "R1": Relation("R1", ("X1", "Z"), [(b, a) for a, b in rows1]),
                "R2": Relation("R2", ("X2", "Z"), [(b, a) for a, b in rows2]),
            },
        )
        assert_matches_oracle(inst, rhierarchical_join)


class TestInstanceOptimality:
    """Theorem 3: load = O(IN/p + L_instance(p, R))."""

    RATIO_CAP = 40  # generous constant; the point is independence from skew

    @pytest.mark.parametrize("skew", [1.0, 2.0, 8.0])
    def test_ratio_bounded_across_skew(self, skew):
        p = 8
        inst = forest_instance(catalog.q2_hierarchical(), 4, skew=skew)
        rep = assert_matches_oracle(inst, rhierarchical_join, p=p)
        bound = inst.input_size / p + l_instance(inst.query, inst, p)
        assert rep.load <= self.RATIO_CAP * bound + 30 * p

    def test_cartesian_ratio(self):
        p = 8
        inst = cartesian_instance([400, 20, 20])
        rep = assert_matches_oracle(inst, rhierarchical_join, p=p)
        bound = inst.input_size / p + l_instance(inst.query, inst, p)
        assert rep.load <= self.RATIO_CAP * bound + 30 * p

    def test_all_values_light(self):
        # Every hub value's 12 rows fit the budget IN/p = 18: every value
        # is light, no server is allocated, and the result is still correct.
        inst = star_instance(3, 6, 4)
        rep = assert_matches_oracle(inst, rhierarchical_join, p=4)
        assert rep.by_label["rhier/d0/alloc"] == 0
        assert not any(label.startswith("rhier/d0/h/") for label in rep.by_label)
        assert rep.load > 0


def _fork_star():
    """``cold_emit``'s ``F2, F3, F4`` sub-join of the fork, at test size."""
    fork = random_instance(
        catalog.fork_join(), 60, {"A": 600, "B": 5, "C": 5, "D": 600, "E": 600}, seed=17
    )
    names = sorted(fork.relations)[1:]
    query = Hypergraph({n: fork.query.attrs_of(n) for n in names}, name="star")
    return Instance(query, {n: fork.relations[n] for n in names})


class TestEmissionOrder:
    """Per-part output (row lists, in order) on the decks' generators equals
    the last row-emitting commit's: light packs through ``local_tree_join``,
    heavy values through the recursion, grid cells through block products.
    ``q2``'s pin moved once more when the reduce step stopped semi-joining
    each contained relation into its container, which had re-sorted it."""

    CASES = {
        "binary": (lambda: random_instance(
            catalog.binary_join(), 120, {"A": 600, "B": 6, "C": 600}, seed=7), 8,
            "950129e6ad7c9204"),
        "fork-star": (_fork_star, 8, "7ae131c623585c62"),
        "q2": (lambda: random_instance(
            catalog.q2_r_hierarchical(), 80,
            {"x1": 27, "x2": 800, "x3": 6, "x4": 800, "x5": 6}, seed=11), 8,
            "eab17d92559ba028"),
        "matching": (lambda: matching_instance(catalog.star_join(3), 60), 8,
                     "6eb7d1187b0ebaa8"),
        "extremal": (lambda: rhier_extremal(catalog.star_join(3), 24, 432), 16,
                     "bd47b859cfb01890"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_per_part_output_equals_the_row_emitting_commit(self, case):
        build, p, digest = self.CASES[case]
        assert part_digest(deck_strings(build()), rhierarchical_join, p) == digest
